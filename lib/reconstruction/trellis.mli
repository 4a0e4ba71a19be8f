(** Trellis (BCJR-style) consensus refinement, after the coded trace
    reconstruction line of work behind the paper's evaluation dataset
    (Srinivasavaradhan et al.): each read contributes *soft* per-position
    base evidence from a forward-backward pass over an
    insertion/deletion/substitution HMM against the current consensus,
    and the combined posteriors refine it.

    Pays at sparse coverage (<= ~5 reads) on indel-moderate channels;
    see the regime note in the implementation. *)

type rates = { p_del : float; p_ins : float; p_sub : float }

val estimate_rates : Dna.Strand.t -> Dna.Strand.t array -> rates
(** Per-cluster channel rates from alignments against a reference. *)

val read_evidence : rates -> Dna.Strand.t -> Dna.Strand.t -> float array array
(** [(length reference) x 4] log-domain posterior base evidence of one
    read. *)

val refine_once : ?margin:float -> rates -> Dna.Strand.t -> Dna.Strand.t array -> Dna.Strand.t
(** One soft vote over all reads against the reference; a position only
    changes when the challenger beats the reference base's combined
    log-evidence by [margin] (default 3.0) nats. *)

val reconstruct :
  ?iterations:int ->
  ?refinements:int ->
  target_len:int ->
  Dna.Strand.t array ->
  Dna.Strand.t
(** Seed with the profile consensus (fixing the length), then apply
    [iterations] (default 2) trellis refinement passes. *)
