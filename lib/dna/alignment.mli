(** Needleman-Wunsch global pairwise alignment with traceback, at unit
    costs — the optimal score equals the edit distance.

    Three kernels, selected per call or process-wide via {!backend} and
    [?band]: the full O(la*lb) matrix (the reference oracle); the
    default, Myers' bit-vector algorithm with a traceback read from its
    stored delta vectors (O(ceil(la/63)*lb) words, every cell exact);
    and, for an explicit [?band], a Ukkonen band that computes
    O(la*band) cells and falls back to a full recompute whenever the
    optimal path may have hit the band edge. Scores and scripts are
    always exact and bit-identical to the oracle's. All kernels run over
    flat scratch arrays drawn from a per-domain arena: parallel
    reconstruction workers never reallocate DP state between calls. *)

type op =
  | Match of Nucleotide.t
  | Substitute of Nucleotide.t * Nucleotide.t  (** original base, read base *)
  | Delete of Nucleotide.t  (** base of the first strand missing from the second *)
  | Insert of Nucleotide.t  (** base of the second strand absent from the first *)

type t = {
  score : int;  (** total edit cost *)
  script : op list;  (** operations transforming the first strand into the second *)
}

val gap_char : char
(** '-', used by {!padded}. *)

type backend =
  | Auto  (** same as [Banded] *)
  | Full  (** the full DP matrix: the reference oracle, and a benchmark baseline *)
  | Banded
      (** the bit-vector kernel, or with an explicit [?band] the Ukkonen
          band with full-matrix fallback at the band edge *)

val backend_name : backend -> string
(** ["auto"], ["full"] or ["banded"]; benchmark/report labels. *)

val set_default_backend : backend -> unit
(** Set the process-wide backend used when [?backend] is omitted. The
    initial default is [Auto]. *)

val current_default_backend : unit -> backend

val default_band : int
(** Default half-width for band-limited consumers that want a fixed
    band (e.g. {!Poa.add}): 16, comfortably above the edit distance of
    sibling reads at realistic sequencing error rates. *)

val banded_fallbacks : unit -> int
(** Process-wide count of banded runs that fell back to the full matrix
    because their score exceeded the band. Only an explicit [?band] can
    trigger this (a high rate signals it is too narrow for the
    workload); the default bit-vector kernel has no band to exceed. *)

val reset_banded_fallbacks : unit -> unit

val scratch_capacity_words : unit -> int
(** Capacity currently held by the calling domain's alignment arena
    (DP cells, code buffers, op scripts, the bit-vector kernel's four
    delta planes), in array slots. Grow-only:
    steady under a fixed workload once the largest alignment has been
    seen — the invariant pool-native reconstruction leans on. *)

val align : ?backend:backend -> ?band:int -> Strand.t -> Strand.t -> t
(** [align a b] computes an optimal global alignment, preferring
    diagonal moves on ties (then deletions, then insertions) so scripts
    stay maximally aligned. The result (score and script) is identical
    for every backend and band. When [band] is omitted, one blocked
    Myers pass stores the vertical and horizontal delta bits of every
    column and the traceback reads its decisions off them: exact by
    construction, no retry. With an explicit [band] (clamped to at least
    1, the half-width around the main diagonal), a banded run is only
    accepted when its score is certifiably exact (score <= band); a
    failed attempt recomputes in full. *)

(** {2 Packed scripts — the zero-allocation hot path}

    Consensus loops align thousands of reads and immediately fold each
    script into count tables; materializing an [op list] per alignment
    (two heap blocks per operation) was a measurable fraction of the
    whole reconstruction. [align_packed] returns the script as packed
    ints in an arena buffer instead. *)

type packed = {
  packed_score : int;  (** total edit cost, same as {!t.score} *)
  ops : int array;
      (** arena-owned — valid only until the next alignment on this
          domain; consume (or copy) before aligning again *)
  off : int;  (** index of the first op in [ops] *)
  lim : int;  (** one past the last op *)
}

val align_packed : ?backend:backend -> ?band:int -> Strand.t -> Strand.t -> packed
(** Exactly {!align} (same dispatch, same script, same exactness
    guarantees) without building the [op list]: ops are packed ints in
    [ops.(off .. lim - 1)], forward order, decoded by {!packed_kind} /
    {!packed_a} / {!packed_b}. *)

val packed_kind : int -> int
(** 0 = match, 1 = substitute, 2 = delete, 3 = insert. *)

val packed_a : int -> int
(** Code of the first strand's base (match / substitute / delete). *)

val packed_b : int -> int
(** Code of the second strand's base (match / substitute / insert). *)

val script_of_packed : packed -> op list
(** Decode into the ordinary constructors ([align] is [align_packed]
    followed by this). *)

val padded : t -> string * string
(** Both strands rendered with gap characters so that aligned positions
    line up; the two strings have equal length. *)

val apply_script : op list -> Strand.t
(** Replay a script to recover the second strand. *)

type op_kind = Kmatch | Ksub | Kdel | Kins

val kind : op -> op_kind

val counts : t -> int * int * int * int
(** (matches, substitutions, deletions, insertions). *)
