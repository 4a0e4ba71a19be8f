(* Store benchmarks: batched-get throughput against the domain pool,
   cold get_batch latency (p50/p95), LRU cache effectiveness, and the
   cost of compaction. Writes BENCH_store.json so future changes to the
   store have a perf trajectory to regress against.

     dune exec bench/bench_store.exe                 # full run, writes
                                                     # BENCH_store.json in CWD
     dune exec bench/bench_store.exe -- --out-dir d  # write elsewhere
     dune exec bench/bench_store.exe -- --smoke      # tiny workload: checks the
                                                     # harness and JSON, not timing *)

let smoke = ref false
let out_dir = ref "."

let () =
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--out-dir" :: dir :: rest ->
        out_dir := dir;
        parse rest
    | arg :: _ ->
        Printf.eprintf "usage: bench_store [--smoke] [--out-dir DIR] (got %S)\n" arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv))

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* Nearest-rank percentile of a non-empty sample. *)
let percentile q samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  a.(max 0 (min (Array.length a - 1) (int_of_float (ceil (q *. float_of_int (Array.length a))) - 1)))

let ok_or_die label = function
  | Ok v -> v
  | Error e ->
      Printf.eprintf "bench_store: %s: %s\n" label (Store.error_message e);
      exit 1

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let () =
  let n_objects = if !smoke then 4 else 8 in
  let object_bytes = if !smoke then 120 else 300 in
  let repeats = if !smoke then 1 else 3 in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dnastore_bench_%d" (Unix.getpid ()))
  in
  if Sys.file_exists dir then rm_rf dir;
  (* A small shard target spreads the objects over several shards, as a
     populated store would be. *)
  let config = { Store.default_config with Store.shard_target_strands = 64 } in
  let store = ok_or_die "init" (Store.init ~config ~dir ~seed:42 ()) in
  let r = Dna.Rng.create 4242 in
  let keys = List.init n_objects (fun i -> Printf.sprintf "obj%d" i) in
  List.iter
    (fun key ->
      let data = Bytes.init object_bytes (fun _ -> Char.chr (Dna.Rng.int r 256)) in
      ok_or_die ("put " ^ key) (Store.put store ~key data))
    keys;

  (* --- batched get vs sequential (cache off: time the wetlab path) --- *)
  (* Untimed warmup: fault in the shard pools, spawn the worker pool
     and settle the allocator so the first timed run is not paying
     one-off costs the later ones don't. *)
  List.iter (fun (_, r) -> ignore (ok_or_die "warmup" r))
    (Store.get_batch ~domains:2 ~use_cache:false store keys);
  let timed_run f =
    let total = ref 0.0 in
    for _ = 1 to repeats do
      let results, dt = time f in
      List.iter (fun (key, r) -> ignore (ok_or_die ("get " ^ key) r)) results;
      total := !total +. dt
    done;
    !total /. float_of_int repeats
  in
  let sequential_s =
    timed_run (fun () ->
        List.map (fun key -> (key, Store.get ~use_cache:false store ~key)) keys)
  in
  Printf.printf "sequential get x%d: %.3f s\n%!" n_objects sequential_s;
  (* Cold get_batch latency, one key per batch: enough batches that the
     p95 has ten samples beyond it (200 in a full run). *)
  let latency_rounds = if !smoke then 1 else 25 in
  let get_latencies =
    List.concat
      (List.init latency_rounds (fun _ ->
           List.map
             (fun key ->
               let results, dt =
                 time (fun () -> Store.get_batch ~domains:1 ~use_cache:false store [ key ])
               in
               List.iter (fun (key, r) -> ignore (ok_or_die ("get " ^ key) r)) results;
               dt)
             keys))
  in
  let get_p50 = percentile 0.5 get_latencies and get_p95 = percentile 0.95 get_latencies in
  Printf.printf "cold get_batch latency (%d one-key batches): p50 %.1f ms, p95 %.1f ms\n%!"
    (List.length get_latencies) (1000.0 *. get_p50) (1000.0 *. get_p95);
  let domain_counts = [ 1; 2; 4 ] in
  let batched =
    List.map
      (fun domains ->
        let s = timed_run (fun () -> Store.get_batch ~domains ~use_cache:false store keys) in
        Printf.printf "batched get x%d (--domains %d): %.3f s (%.2fx)\n%!" n_objects domains s
          (sequential_s /. s);
        (domains, s))
      domain_counts
  in

  (* --- cache hit ratio on a re-read working set --- *)
  let hits0 = (Store.stats store).Store.cache_hits
  and misses0 = (Store.stats store).Store.cache_misses in
  let reread () =
    List.iter (fun (key, r) -> ignore (ok_or_die ("cached get " ^ key) r))
      (Store.get_batch store keys)
  in
  reread ();
  (* First pass fills the cache, later passes should hit. *)
  let cache_rounds = if !smoke then 2 else 4 in
  for _ = 2 to cache_rounds do
    reread ()
  done;
  let hits = (Store.stats store).Store.cache_hits - hits0
  and misses = (Store.stats store).Store.cache_misses - misses0 in
  let hit_ratio = float_of_int hits /. float_of_int (max 1 (hits + misses)) in
  print_string (Dnastore.Report.cache_counters ~label:"store" ~hits ~misses);

  (* --- compaction cost --- *)
  List.iteri
    (fun i key -> if i mod 2 = 0 then ok_or_die ("rm " ^ key) (Store.delete store ~key))
    keys;
  let cstats, compact_s = time (fun () -> ok_or_die "compact" (Store.compact store)) in
  Printf.printf "compact (%d live objects, %d -> %d strands): %.3f s\n%!"
    cstats.Store.objects_rewritten cstats.Store.strands_before cstats.Store.strands_after
    compact_s;

  (* --- JSON (emitted through the store's own JSON layer) --- *)
  let j = Store.Json.Obj
    [
      ( "config",
        Store.Json.Obj
          [
            ("smoke", Store.Json.Bool !smoke);
            (* Domain scaling is bounded by the machine: with one
               hardware core the pool spawns no workers, every
               [--domains N] runs serially, and the batched win is
               purely the shared per-shard sequencing. Read the
               domains-N entries against this field. *)
            ("hardware_domains", Store.Json.Int (Domain.recommended_domain_count ()));
            ("pool_workers", Store.Json.Int (Dna.Par.pool_size ()));
            ("recommended_domains", Store.Json.Int (Dna.Par.default_domains ()));
            ("n_objects", Store.Json.Int n_objects);
            ("object_bytes", Store.Json.Int object_bytes);
            ("repeats", Store.Json.Int repeats);
            ("shard_target_strands", Store.Json.Int config.Store.shard_target_strands);
          ] );
      ( "entries",
        Store.Json.List
          (Store.Json.Obj
             [
               ("name", Store.Json.String "get/sequential");
               ("s_total", Store.Json.Float sequential_s);
               ("speedup_vs_sequential", Store.Json.Float 1.0);
             ]
           :: Store.Json.Obj
                [
                  ("name", Store.Json.String "get_batch/cold-latency");
                  ("p50_s", Store.Json.Float get_p50);
                  ("p95_s", Store.Json.Float get_p95);
                  ("samples", Store.Json.Int (List.length get_latencies));
                ]
           :: List.map
                (fun (domains, s) ->
                  Store.Json.Obj
                    [
                      ("name", Store.Json.String (Printf.sprintf "get_batch/domains-%d" domains));
                      ("s_total", Store.Json.Float s);
                      ("speedup_vs_sequential", Store.Json.Float (sequential_s /. s));
                    ])
                batched
          @ [
              Store.Json.Obj
                [
                  ("name", Store.Json.String "cache/reread-hit-ratio");
                  ("hits", Store.Json.Int hits);
                  ("misses", Store.Json.Int misses);
                  ("hit_ratio", Store.Json.Float hit_ratio);
                ];
              Store.Json.Obj
                [
                  ("name", Store.Json.String "compact/half-deleted");
                  ("s_total", Store.Json.Float compact_s);
                  ("objects_rewritten", Store.Json.Int cstats.Store.objects_rewritten);
                  ("strands_before", Store.Json.Int cstats.Store.strands_before);
                  ("strands_after", Store.Json.Int cstats.Store.strands_after);
                ];
            ]) );
    ]
  in
  if not (Sys.file_exists !out_dir) then Sys.mkdir !out_dir 0o755;
  let path = Filename.concat !out_dir "BENCH_store.json" in
  let oc = open_out path in
  output_string oc (Store.Json.to_string j);
  close_out oc;
  Printf.printf "wrote %s\n" path;
  rm_rf dir
