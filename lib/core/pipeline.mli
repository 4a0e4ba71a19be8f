(** The end-to-end pipeline (Section III, Figure 1): five swappable
    stages wired from a file to its recovery, with per-stage wall-clock
    latencies (Table III).

    One decode spine: every read stays in one {!Dna.Strand_pool} arena
    from the channel to the consensus. Clusters are index slices, and
    reconstruction runs on [(pool, index)] views with per-domain
    scratch. The channel and sequencing plan come from {!stages};
    clustering and reconstruction from {!pooled_stages}.

    [run] never raises: crashing stages are caught and degraded, decode
    failures surface as a structured outcome, and the [partial] record
    maps what survived. *)

type stages = { channel : Simulator.Channel.t; sequencing : Simulator.Sequencer.params }
(** The simulated wetlab: the read channel and the sequencing plan. *)

type pooled_stages = {
  cluster_pool : Dna.Rng.t -> Dna.Strand_pool.t -> int array list;
      (** arena in, cluster index-slices out *)
  reconstruct_pool : target_len:int -> Dna.Strand_pool.t -> int array -> Dna.Strand.t;
      (** consensus of one index slice *)
}

type pool_mode = Pool_on
(** The type of {!run}'s [?recon_pool] argument. It has one value and
    selects nothing; it exists so benchmark harnesses written against
    the earlier two-spine API still compile. *)

type timings = {
  encode_s : float;
  simulate_s : float;
  cluster_s : float;
  reconstruct_s : float;
  reconstruct_p50_s : float;
      (** median per-cluster reconstruction wall time (0 outside [run]) *)
  reconstruct_p95_s : float;
      (** 95th-percentile per-cluster reconstruction wall time: the tail
          a perf change must move, dominated by the largest clusters *)
  decode_s : float;
}

val total_s : timings -> float
(** Sum of the five stage latencies (the percentile fields are
    summaries of [reconstruct_s]'s per-cluster breakdown, not extra
    stages). *)

type outcome = {
  file : Bytes.t option;  (** [None] when decoding failed outright *)
  exact : bool;  (** decoded bytes match the input exactly *)
  partial : Codec.File_codec.partial_recovery;
      (** what survived: per-unit status, recovered fraction and byte
          ranges (all-lost when [file = None]) *)
  stage_failures : (Faults.stage * string) list;
      (** stages that raised and were degraded, oldest first *)
  decode_error : string option;  (** why [file] is [None], when it is *)
  timings : timings;
  n_strands : int;
  n_reads : int;
  n_clusters : int;
  reconstruct_words_per_cluster : float;
      (** mean minor-heap words allocated per reconstructed cluster
          (exact with [domains = 1], an approximation under parallel
          workers); renderable with {!Report.recon_alloc} *)
  decode_stats : Codec.File_codec.decode_stats option;
}

val cluster_pool_default :
  ?kind:Clustering.Signature.kind -> ?domains:int -> unit ->
  Dna.Rng.t -> Dna.Strand_pool.t -> int array list
(** The default clustering stage: thresholds auto-configured from the
    data, then the scaled merge engine ({!Clustering.Cluster.run_scaled});
    clusters come back as index slices into the arena. *)

val reconstruct_nw_pool :
  ?backend:Dna.Alignment.backend -> target_len:int -> Dna.Strand_pool.t -> int array ->
  Dna.Strand.t
(** Needleman-Wunsch consensus of a cluster index-slice of an arena
    pool. [backend] selects the pairwise alignment kernel; the consensus
    is identical for every choice (see {!Dna.Alignment.align}). *)

val default_stages : ?error_rate:float -> ?coverage:int -> unit -> stages
(** i.i.d. channel at 6%, fixed coverage 10. *)

val default_pooled_stages :
  ?recon_backend:Dna.Alignment.backend -> unit -> pooled_stages
(** Auto-configured q-gram clustering ({!cluster_pool_default}) and
    Needleman-Wunsch reconstruction ({!reconstruct_nw_pool}) running on
    [recon_backend] (default: the process-wide
    {!Dna.Alignment.current_default_backend}). *)

val percentile : float array -> float -> float
(** [percentile xs q] is the nearest-rank [q]-quantile ([0 < q <= 1]) of
    [xs] (not required to be sorted); 0 when [xs] is empty. Feeds the
    [reconstruct_p50_s]/[reconstruct_p95_s] fields. *)

val sort_cluster_slices : Dna.Strand_pool.t -> int array array -> unit
(** In-place: largest clusters first (their consensus claims the column
    on conflicts), equal sizes tie-broken by their reads (length, then
    lexicographic, compared through the pool views) so the order is
    deterministic however the clustering stage emitted them — e.g.
    across [--domains] settings. The Par pool then starts the big
    clusters first (tail latency). Shared by [run], [Kv_store.get] and
    the persistent store's decode path. *)

val run :
  ?params:Codec.Params.t -> ?layout:Codec.Layout.t -> ?stages:stages ->
  ?pooled:pooled_stages -> ?recon_pool:pool_mode -> ?domains:int ->
  ?faults:Faults.plan ->
  ?prepare:(Dna.Rng.t -> Dna.Strand.t array -> Dna.Strand.t array) ->
  Dna.Rng.t -> Bytes.t -> outcome
(** Encode, simulate, cluster, reconstruct (largest clusters first),
    decode. Never raises.

    Sequencing runs serially into one arena (draw-for-draw identical to
    [Simulator.Sequencer.sequence ~domains:1], hence the same read set
    for every [domains]) through the [channel]/[sequencing] of [stages]
    (default {!default_stages}). Clustering produces index slices and
    reconstruction consumes them through [pooled] (default
    {!default_pooled_stages}).

    [recon_pool] exists only so benchmark harnesses that pass
    [~recon_pool:Pool_on] keep compiling; it has one value and changes
    nothing.

    [prepare] transforms the encoded strand pool between encode and
    sequencing — the hook scenario stacks use for physical pool models
    (aging decay, PCR amplification bias; see {!Simulator.Scenario} and
    {!Scenario_run}). It runs inside the simulate stage (its cost counts
    toward [simulate_s], a raise degrades like a simulate crash) and
    draws from the ambient [rng]. [n_strands] reports the pool size
    {e before} [prepare], i.e. what the codec synthesized.

    [faults] injects the plan's seeded data faults between stages
    (dropout after encode; undersampling, truncation and corruption
    after sequencing; cluster loss after clustering) and its crash/stuck
    faults at stage entry. Degradation on a crashing stage: clustering
    falls back to singleton clusters, reconstruction falls back through
    {!Reconstruction.Ensemble.reconstruct_fallback_pool} (NW -> BMA ->
    majority) per cluster, decode crashes return an all-lost [partial].
    Given equal seeds (pipeline rng and fault plan), the outcome replays
    bit-identically. Read-level faults materialize views, inject, and
    rebuild a fresh arena (committed reads are write-once).

    [domains] (default {!Dna.Par.default_domains}) parallelizes
    per-cluster reconstruction. Under a fixed seed, clustering and
    reconstruction outputs are identical for every worker count.
    [Dna.Par.counters] exposes per-stage parallel timing, renderable
    with {!Report.par_counters}. *)
