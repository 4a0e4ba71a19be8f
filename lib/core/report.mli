(** Plain-text rendering of experiment results: aligned tables and
    ASCII profiles, used by the benchmark harness. *)

val table : string list list -> string
(** Column-aligned; the first row is the header. *)

val ascii_profile : ?height:int -> ?buckets:int -> float array -> string
(** A bar rendering of a y-series (e.g. a per-index error profile). *)

val par_counters : Dna.Par.counter list -> string
(** A table of the parallel layer's per-label counters
    ([Dna.Par.counters ()]): regions entered, tasks run, wall time.
    Empty string for an empty list. *)

val recovery : Codec.File_codec.partial_recovery -> string
(** Per-unit status counts, recovered fraction and surviving byte
    ranges, one block of text. *)

val cache_counters : label:string -> hits:int -> misses:int -> string
(** One line of cache accounting with the hit rate, e.g. the persistent
    store's LRU of decoded objects. *)

val recon_percentiles : p50_s:float -> p95_s:float -> string
(** One line of per-cluster reconstruction tail latency (in ms), from
    the [reconstruct_p50_s]/[reconstruct_p95_s] fields of
    [Pipeline.timings]; empty when both are zero (no clusters ran). *)

val recon_alloc : n_clusters:int -> words_per_cluster:float -> string
(** One line of reconstruction allocation accounting, from
    [Pipeline.outcome.reconstruct_words_per_cluster]; empty when no
    clusters ran. *)

val latency_summary :
  label:string -> n:int -> wall_s:float -> p50_ms:float -> p95_ms:float -> p99_ms:float -> string
(** One line of served-request accounting: op count, wall time, derived
    throughput and the p50/p95/p99 latency tail (used by the serving
    layer's stats and the [bench_serve] driver). *)

val scrub_summary :
  shards_checked:int ->
  shards_corrupt:int ->
  shards_quarantined:int ->
  shards_dropped:int ->
  objects_checked:int ->
  objects_repaired:int ->
  objects_degraded:int ->
  objects_lost:int ->
  checksums_backfilled:int ->
  string
(** A scrub pass in two lines: the shard sweep, then what object
    recovery did about the damage (used by [dnastore store scrub]). *)

val resilience_counters :
  rejected:int -> retries:int -> gave_up:int -> timed_out:int -> degraded:int -> string
(** One line of serving-layer resilience accounting (load shed, retried,
    abandoned, answered late or partially); empty when all zero. *)

val maintenance_counters : unlink_failures:int -> orphans_reclaimed:int -> string
(** One line of store-maintenance hygiene: unlinks compact had to skip
    and orphan/temp debris reclaimed at open; empty when all zero. *)

val pct : float -> string
(** "12.34%". *)

val f3 : float -> string
val f4 : float -> string

val section : string -> string
(** A boxed section heading. *)

val scenario_summary : Scenario_run.outcome list -> string
(** One scenario-sweep cell per row — recovered fraction against its
    floor, configured vs realized channel error rate, wall clock — with
    a one-line verdict (used by [dnastore scenario] and
    [bench_scenarios]). *)
