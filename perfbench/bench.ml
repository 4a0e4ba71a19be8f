(* The repository benchmark: three fixed-work workloads over the public
   API, one per process. End-to-end times are reported at a reference
   host speed (see "host speed" below).

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--work-dir DIR]

   Workloads (see perfbench/README.md for why each was chosen):
     sim-nw     Pipeline.run, pooled spine, NW consensus, 20 KB files, 6% errors
     archive    Store get/overwrite (80/20) over 128 x 1 KB objects, 8x the LRU
     serve-hot  Serve scheduler, 2 closed-loop clients, 16 x 1 KB keys, zipf 0.99, 95% gets

   Every input is generated from --seed before the timed phase; --seconds
   fixes the length of the operation list (a rate per workload times the
   seconds), never a timer, so two runs at one seed do identical work
   whatever the host's speed. With --trace 0 the last stdout line carries
   the end-to-end metrics; with --trace 1 the benchmark times the calls
   into each layer itself, writes the spans as Chrome trace-event JSON
   under the work dir, and the last line carries the per-layer metrics.
   Earlier lines: a human summary, "INFO {...}" (host diagnostics) and
   "COUNTS {...}" (work counts that must repeat exactly at one seed). *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let traced = ref false
let work_dir = ref ".perfbench"

let () =
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := w;
        parse rest
    | "--seed" :: s :: rest ->
        seed := int_of_string s;
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := int_of_string s;
        parse rest
    | "--trace" :: t :: rest ->
        traced := t = "1";
        parse rest
    | "--work-dir" :: d :: rest ->
        work_dir := d;
        parse rest
    | arg :: _ ->
        Printf.eprintf
          "usage: bench --workload NAME --seed N --seconds S --trace 0|1 [--work-dir DIR] (got %S)\n"
          arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv))

let now = Unix.gettimeofday

(* ---------- statistics ---------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank quantile, 0 on no samples. *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0 else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median xs = percentile xs 0.5

(* The highest percentile with at least ten samples beyond it, and
   which percentile that was. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (0.0, 0.0)
  else
    let k = max 0 (n - 11) in
    (a.(k), float_of_int (k + 1) /. float_of_int n)

let sum xs = List.fold_left ( +. ) 0.0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int
let ms s = 1000.0 *. s

(* ---------- the result ---------- *)

(* Timed metrics are computed twice: at the reference host speed (see
   "host speed" below), as reported, and once more inside [raw], where
   [metric ~timed:true] records the unscaled figure in INFO instead. *)
let metrics : (string * float * string) list ref = ref []
let raw_mode = ref false
let counts : (string * int) list ref = ref []
let count name v = counts := (name, v) :: !counts
let info : (string * string) list ref = ref []
let note name v = info := (name, v) :: !info
let note_f name v = note name (Printf.sprintf "%.6g" v)
let note_s name v = note name (Printf.sprintf "%S" v)

let metric ?(timed = false) name unit v =
  if not !raw_mode then metrics := (name, v, unit) :: !metrics
  else if timed then note_f ("raw." ^ name) v

let raw f =
  raw_mode := true;
  Fun.protect ~finally:(fun () -> raw_mode := false) f

let problems : string list ref = ref []
let check ok msg = if not ok then problems := msg :: !problems
let attempted = ref 0
let failed = ref 0

(* Throughput over the timed phase. [units] holds, in order, each timed
   unit's user bytes, completed operations and wall time (a unit is one
   op, or one serve round); the host-speed samples taken between units
   are not part of any unit's wall. *)
let throughput units =
  let bytes, ops, wall =
    List.fold_left (fun (b, o, w) (b', o', w') -> (b + b', o + o', w +. w')) (0, 0, 0.0) units
  in
  metric ~timed:true "kb_per_s" "KB/s" (fi bytes /. 1000.0 /. wall);
  metric ~timed:true "ops_per_s" "1/s" (fi ops /. wall)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields) ^ "}"

(* ---------- host diagnostics ---------- *)

(* A fixed integer loop, timed at the start and the end of a run: a
   diagnostic of the clock, which stays within a few percent while the
   host-speed kernel below swings. Not a gated metric. *)
let calibrate () =
  let t0 = now () in
  let x = ref 0 in
  for i = 1 to 100_000_000 do
    x := ((!x * 31) + i) land 0xFFFFFF
  done;
  ignore (Sys.opaque_identity !x);
  ms (now () -. t0)

(* ---------- host speed ---------- *)

(* On the shared 2-vCPU virtual machine this benchmark was built on,
   the host's speed drifts by up to 1.5x in waves from seconds to
   minutes long: at one seed the median file time was 0.66 s in one run
   and 0.87 s in another. A short fixed kernel, an edit-distance DP over
   two 300-base sequences (the kind of work the toolkit's alignment
   does, but code of the benchmark's own), is timed between operations,
   never inside a timed one, at most every 200 ms. Each operation's time
   is then reported at a reference host speed: multiplied by
   [kernel_ref_ms] over the kernel's last time before the operation.
   Over five runs of one seed this cut the spread of the median file
   time from 0.17 to 0.03 of the median. A change to the toolkit moves
   the scaled figures as it moves the raw ones, which are in INFO. *)
let kernel_ref_ms = 10.0
let dp_a = Array.init 300 (fun i -> ((i * 7919) + 13) mod 4)
let dp_b = Array.init 300 (fun i -> ((i * 104_729) + 7) mod 4)

let kernel () =
  let t0 = now () in
  let prev = Array.make 301 0 and cur = Array.make 301 0 in
  for _ = 1 to 6 do
    Array.iteri (fun j _ -> prev.(j) <- j) prev;
    for i = 1 to 300 do
      cur.(0) <- i;
      for j = 1 to 300 do
        let c = if dp_a.(i - 1) = dp_b.(j - 1) then 0 else 1 in
        cur.(j) <- min (min (prev.(j) + 1) (cur.(j - 1) + 1)) (prev.(j - 1) + c)
      done;
      Array.blit cur 0 prev 0 301
    done
  done;
  ignore (Sys.opaque_identity prev);
  ms (now () -. t0)

let kernel_samples = ref []
let last_sample = ref neg_infinity

(* Called before each timed operation; returns the factor that brings
   the operation's time to the reference host speed. *)
let host_factor () =
  if now () -. !last_sample >= 0.2 then begin
    kernel_samples := kernel () :: !kernel_samples;
    last_sample := now ()
  end;
  kernel_ref_ms /. List.hd !kernel_samples

(* How a [report] function turns an operation's time and factor into
   the figure it reports: at the reference speed, or raw. *)
let scaled factor t = t *. factor
let unscaled _ t = t

let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go () =
          let line = input_line ic in
          if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                fi kb /. 1024.0)
          else go ()
        in
        go ())
  with _ -> 0.0

(* ---------- inputs ---------- *)

let stream tag i = Dna.Rng.create (Hashtbl.hash (!seed, tag, i))
let random_bytes rng n = Bytes.init n (fun _ -> Char.chr (Dna.Rng.int rng 256))

let n_ops ~per_second = max 1 (int_of_float (Float.round (per_second *. fi !seconds)))

(* Set-up runs several times; the median is reported. *)
let setup_reps = 5

let timed_setup f =
  let results =
    List.init setup_reps (fun rep ->
        let factor = host_factor () in
        let t0 = now () in
        let r = f rep in
        (r, now () -. t0, factor))
  in
  if not !traced then begin
    metric ~timed:true "setup_s" "s" (median (List.map (fun (_, w, f) -> w *. f) results));
    raw (fun () -> metric ~timed:true "setup_s" "s" (median (List.map (fun (_, w, _) -> w) results)))
  end;
  List.map (fun (r, _, _) -> r) results

(* ---------- Par counters ---------- *)

let par_regions () = List.map (fun c -> (c.Dna.Par.label, c.Dna.Par.regions)) (Dna.Par.counters ())

let par_ran before =
  List.filter_map
    (fun (label, n) ->
      if n > Option.value ~default:0 (List.assoc_opt label before) then Some label else None)
    (par_regions ())

let par_totals () =
  List.fold_left
    (fun (tasks, wall) c -> (tasks + c.Dna.Par.tasks, wall +. c.Dna.Par.wall_s))
    (0, 0.0) (Dna.Par.counters ())

(* ---------- trace summaries (per-layer metrics) ---------- *)

let layers = [ "codec"; "simulator"; "clustering"; "reconstruction"; "store"; "serve" ]

(* Self-time shares of the traced operation wall, per layer, plus the
   benchmark's own glue; they sum to 100. *)
let layer_metrics tr ~untraced_s =
  let by_layer, root_s = Trace.layer_self tr in
  let share l = 100.0 *. ratio (Option.value ~default:0.0 (Hashtbl.find_opt by_layer l)) root_s in
  List.iter (fun l -> metric (l ^ ".self_pct") "%" (share l)) layers;
  metric "trace.glue_pct" "%" (share "glue");
  metric "trace.overhead_pct" "%" (100.0 *. (ratio root_s untraced_s -. 1.0));
  metric "trace.op_ms" "ms" (ms (median (Trace.durations tr "op")));
  note_f "trace.accounted_pct"
    (100.0 *. ratio (Hashtbl.fold (fun _ v acc -> acc +. v) by_layer 0.0) root_s);
  let path = Filename.concat !work_dir (Printf.sprintf "trace-%s-seed%d.json" !workload !seed) in
  Trace.write_chrome tr ~path
    ~meta:[ ("workload", !workload); ("seed", string_of_int !seed); ("seconds", string_of_int !seconds) ];
  note_s "trace_file" path

(* Every per-layer metric appears in every traced run; a layer a
   workload does not reach reports zero. *)
let zero_layer_counts names = List.iter (fun (n, u) -> metric n u 0.0) names

let sim_layer_names =
  [
    ("simulator.reads", "count");
    ("clustering.clusters", "count");
    ("clustering.clusters_per_strand", "ratio");
    ("clustering.accuracy_g1", "ratio");
    ("clustering.edit_comparisons", "count");
    ("clustering.merges", "count");
    ("reconstruction.words_per_cluster", "words");
    ("reconstruction.perfect_frac", "ratio");
    ("codec.corrected_bytes", "count");
    ("codec.erased_columns", "count");
    ("codec.failed_codewords", "count");
    ("codec.missing_strands", "count");
  ]

let store_layer_names =
  [
    ("store.cache_hit_ratio", "ratio");
    ("store.passes_per_get", "ratio");
    ("store.dead_strand_ratio", "ratio");
    ("store.bytes_written_per_user_byte", "ratio");
    ("store.shards", "count");
    ("store.strands", "count");
  ]

let serve_layer_names =
  [
    ("serve.rounds", "count");
    ("serve.coalesced_ratio", "ratio");
    ("serve.passes", "count");
    ("serve.rejected", "count");
  ]

let par_metrics (tasks, wall_s) =
  metric "par.tasks" "count" (fi tasks);
  metric "par.wall_ms" "ms" (ms wall_s)

(* ---------- sim-nw ---------- *)

let params = Codec.Params.default
let layout = Codec.Layout.Baseline

let run_sim () =
  let file_bytes = 20_000 in
  let recon ~target_len pool idxs = Reconstruction.Nw_consensus.reconstruct_pool ~target_len pool idxs in
  Dna.Par.set_default_domains 1;
  note "domains" "1";
  let stages = Dnastore.Pipeline.default_stages ~error_rate:0.06 ~coverage:10 () in
  (* The pooled cluster stage is wrapped so every run proves it went
     through the pooled spine: the boxed spine never calls it. *)
  let pooled_calls = ref 0 in
  let pooled =
    {
      Dnastore.Pipeline.cluster_pool =
        (fun rng pool ->
          incr pooled_calls;
          Dnastore.Pipeline.cluster_pool_default ~domains:1 () rng pool);
      reconstruct_pool = recon;
    }
  in
  let pipeline rng file =
    let before = par_regions () and calls = !pooled_calls in
    let t0 = now () in
    let o =
      Dnastore.Pipeline.run ~params ~layout ~stages ~pooled ~recon_pool:Dnastore.Pipeline.Pool_on
        ~domains:1 rng file
    in
    let wall = now () -. t0 in
    let ran = par_ran before in
    let pooled_spine =
      !pooled_calls = calls + 1
      && List.mem "cluster.index" ran
      && not (List.mem "cluster.signatures" ran)
    in
    (o, wall, pooled_spine)
  in
  let n = n_ops ~per_second:1.0 in
  let inputs =
    List.hd
      (timed_setup (fun _ ->
           let files = Array.init n (fun i -> random_bytes (stream "file" i) file_bytes) in
           let warm = random_bytes (stream "warm-file" 0) file_bytes in
           let o, _, _ = pipeline (stream "warm-op" 0) warm in
           check o.Dnastore.Pipeline.exact "warm-up file did not round-trip";
           files))
  in
  (* A file that does not decode exactly is a failed op. It is a wrong
     output when the decoder reports every codeword recovered all the
     same. *)
  let silent_corruption ~op ~file b stats =
    check
      (Bytes.equal b file || not (Codec.File_codec.fully_recovered stats))
      (Printf.sprintf "op %d: decoded bytes differ from the input though every codeword decoded" op)
  in
  let exact (o : Dnastore.Pipeline.outcome) file =
    match o.file with Some b -> Bytes.equal b file | None -> false
  in
  attempted := n;
  if not !traced then begin
    let ops =
      Array.to_list
        (Array.mapi
           (fun i file ->
             let factor = host_factor () in
             let o, wall, pooled_spine = pipeline (stream "op" i) file in
             (o, wall, pooled_spine, factor))
           inputs)
    in
    let outcomes = List.map (fun (o, _, _, _) -> o) ops in
    failed := List.length (List.filter not (List.map2 exact outcomes (Array.to_list inputs)));
    List.iteri
      (fun i (o : Dnastore.Pipeline.outcome) ->
        match (o.file, o.decode_stats) with
        | Some b, Some stats -> silent_corruption ~op:i ~file:inputs.(i) b stats
        | _ -> ())
      outcomes;
    let pooled_runs = List.length (List.filter (fun (_, _, p, _) -> p) ops) in
    check (pooled_runs = n) "an operation did not run on the pooled spine";
    (* The write half of a file's round trip is encoding plus the
       synthesis/sequencing channel; the read half is everything after:
       clustering, reconstruction, decoding. *)
    let report scale =
      let walls = List.map (fun (_, w, _, f) -> scale f w) ops in
      let writes =
        List.map
          (fun ((o : Dnastore.Pipeline.outcome), _, _, f) ->
            scale f (o.timings.encode_s +. o.timings.simulate_s))
          ops
      in
      let reads = List.map2 ( -. ) walls writes in
      throughput (List.map (fun w -> (file_bytes, 1, w)) walls);
      metric ~timed:true "file_p50_ms" "ms" (ms (median walls));
      metric ~timed:true "get_p50_ms" "ms" (ms (median reads));
      metric ~timed:true "get_tail_ms" "ms" (ms (fst (tail reads)));
      metric ~timed:true "put_p50_ms" "ms" (ms (median writes));
      reads
    in
    let reads = report scaled in
    raw (fun () -> ignore (report unscaled));
    let sum_i f = List.fold_left (fun a o -> a + f o) 0 outcomes in
    let recovered (o : Dnastore.Pipeline.outcome) = o.partial.recovered_fraction in
    metric "recovered_frac" "ratio" (sum (List.map recovered outcomes) /. fi n);
    (* Synthesized bases per user byte: a FASTA pool stores one byte per base. *)
    metric "space_amp" "B/B"
      (fi (sum_i (fun o -> o.n_strands) * Codec.Params.strand_nt params) /. fi (n * file_bytes));
    note_f "get_tail_percentile" (100.0 *. snd (tail reads));
    count "reads" (sum_i (fun o -> o.n_reads));
    count "clusters" (sum_i (fun o -> o.n_clusters));
    count "strands" (sum_i (fun o -> o.n_strands));
    count "pooled_spine_ops" pooled_runs
  end
  else begin
    (* Traced run: each file goes once through Pipeline.run (untraced,
       the reference) and once through the same pooled spine composed
       here from public calls with a span around each call. The two must
       agree on the decoded bytes and the cluster count. *)
    let tr = Trace.create () in
    let target_len = Codec.Params.strand_nt params in
    let traced_op ~op rng file =
      let sp name f = Trace.with_span tr ~op name f in
      sp "op" (fun () ->
          let enc = sp "codec.encode" (fun () -> Codec.File_codec.encode ~layout ~params file) in
          let strands = enc.Codec.File_codec.strands in
          let pool = Dna.Strand_pool.create () in
          let origins =
            sp "simulator.sequence_pool" (fun () ->
                Simulator.Sequencer.sequence_pool stages.sequencing stages.channel rng strands ~pool)
          in
          let clustered =
            if Dna.Strand_pool.length pool = 0 then None
            else begin
              let cparams, reads =
                sp "clustering.configure" (fun () ->
                    let reads = Dna.Strand_pool.to_array pool in
                    let p =
                      {
                        (Clustering.Cluster.default_params ~kind:Clustering.Signature.Qgram
                           ~read_len:(Dna.Strand.length reads.(0)) ())
                        with
                        domains = 1;
                      }
                    in
                    (Clustering.Auto_config.apply (Clustering.Auto_config.configure p rng reads) p, reads))
              in
              Some (sp "clustering.run_scaled" (fun () -> Clustering.Cluster.run_scaled cparams rng reads))
            end
          in
          let slices =
            match clustered with Some r -> Array.of_list r.Clustering.Cluster.clusters | None -> [||]
          in
          sp "reconstruction.sort_slices" (fun () -> Dnastore.Pipeline.sort_cluster_slices pool slices);
          let consensus =
            Array.map
              (fun idxs ->
                if Array.length idxs = 0 then None
                else
                  sp "reconstruction.consensus" (fun () ->
                      let w0 = Gc.minor_words () in
                      let s =
                        try Some (recon ~target_len pool idxs)
                        with _ ->
                          Reconstruction.Ensemble.reconstruct_fallback_pool ~target_len pool idxs
                      in
                      Option.map (fun s -> (s, Gc.minor_words () -. w0)) s))
              slices
          in
          let decoded =
            sp "codec.decode" (fun () ->
                Codec.File_codec.decode ~layout ~params ~n_units:enc.n_units
                  (List.filter_map (Option.map fst) (Array.to_list consensus)))
          in
          (strands, origins, clustered, slices, consensus, decoded))
    in
    let untraced_s = ref 0.0 and par_traced = ref (0, 0.0) in
    let reads = ref 0 and clusters = ref 0 and strands_n = ref 0 in
    let edits = ref 0 and merges = ref 0 and acc = ref [] in
    let words = ref [] and perfect = ref 0 and consensus_n = ref 0 in
    let corrected = ref 0 and erased = ref 0 and failed_cw = ref 0 and missing = ref 0 in
    Array.iteri
      (fun i file ->
        let reference, wall, pooled_spine = pipeline (stream "op" i) file in
        untraced_s := !untraced_s +. wall;
        check pooled_spine "an operation did not run on the pooled spine";
        let p0, w0 = par_totals () in
        let strands, origins, clustered, slices, consensus, decoded =
          traced_op ~op:i (stream "op" i) file
        in
        let p1, w1 = par_totals () in
        par_traced := (fst !par_traced + p1 - p0, snd !par_traced +. w1 -. w0);
        let bytes = match decoded with Ok (b, _) -> Some b | Error _ -> None in
        if not (match bytes with Some b -> Bytes.equal b file | None -> false) then incr failed;
        (match decoded with Ok (b, stats) -> silent_corruption ~op:i ~file b stats | Error _ -> ());
        check
          (Option.equal Bytes.equal bytes reference.Dnastore.Pipeline.file)
          (Printf.sprintf "op %d: traced composition decoded other bytes than Pipeline.run" i);
        check
          (Array.length slices = reference.n_clusters)
          (Printf.sprintf "op %d: traced composition made %d clusters, Pipeline.run %d" i
             (Array.length slices) reference.n_clusters);
        reads := !reads + Array.length origins;
        clusters := !clusters + Array.length slices;
        strands_n := !strands_n + Array.length strands;
        (match clustered with
        | Some r ->
            edits := !edits + r.Clustering.Cluster.stats.edit_comparisons;
            merges := !merges + r.stats.merges;
            acc := Clustering.Metrics.accuracy ~gamma:1.0 ~truth:origins r.clusters :: !acc
        | None -> ());
        (* A consensus is perfect when it equals the strand most of its
           cluster's reads came from. *)
        Array.iteri
          (fun c idxs ->
            match consensus.(c) with
            | None -> ()
            | Some (s, dw) ->
                words := dw :: !words;
                incr consensus_n;
                let votes = Hashtbl.create 4 in
                Array.iter
                  (fun r ->
                    let o = origins.(r) in
                    Hashtbl.replace votes o (1 + Option.value ~default:0 (Hashtbl.find_opt votes o)))
                  idxs;
                let origin, _ =
                  Hashtbl.fold
                    (fun o v (bo, bv) -> if v > bv || (v = bv && o < bo) then (o, v) else (bo, bv))
                    votes (-1, 0)
                in
                if origin >= 0 && Dna.Strand.equal s strands.(origin) then incr perfect)
          slices;
        match decoded with
        | Ok (_, stats) ->
            Array.iter
              (fun (u : Codec.Matrix_codec.unit_stats) ->
                corrected := !corrected + u.corrected_bytes;
                erased := !erased + List.length u.erased_columns;
                failed_cw := !failed_cw + List.length u.failed_codewords)
              stats.Codec.File_codec.units;
            missing := !missing + stats.missing_strands
        | Error _ -> ())
      inputs;
    metric "simulator.reads" "count" (fi !reads);
    metric "clustering.clusters" "count" (fi !clusters);
    metric "clustering.clusters_per_strand" "ratio" (ratio (fi !clusters) (fi !strands_n));
    metric "clustering.accuracy_g1" "ratio" (ratio (sum !acc) (fi (List.length !acc)));
    metric "clustering.edit_comparisons" "count" (fi !edits);
    metric "clustering.merges" "count" (fi !merges);
    metric "reconstruction.words_per_cluster" "words" (ratio (sum !words) (fi (List.length !words)));
    metric "reconstruction.perfect_frac" "ratio" (ratio (fi !perfect) (fi !consensus_n));
    metric "codec.corrected_bytes" "count" (fi !corrected);
    metric "codec.erased_columns" "count" (fi !erased);
    metric "codec.failed_codewords" "count" (fi !failed_cw);
    metric "codec.missing_strands" "count" (fi !missing);
    zero_layer_counts (store_layer_names @ serve_layer_names);
    par_metrics !par_traced;
    let cluster_us = List.map (fun s -> 1e6 *. s) (Trace.durations tr "reconstruction.consensus") in
    note_f "reconstruction.cluster_p50_us" (median cluster_us);
    note_f "reconstruction.cluster_p95_us" (percentile cluster_us 0.95);
    List.iter
      (fun (name, span) -> note_f name (ms (sum (Trace.durations tr span)) /. fi n))
      [
        ("codec.encode_ms", "codec.encode");
        ("simulator.sequence_ms", "simulator.sequence_pool");
        ("clustering.cluster_ms", "clustering.run_scaled");
        ("clustering.configure_ms", "clustering.configure");
        ("reconstruction.recon_ms", "reconstruction.consensus");
        ("codec.decode_ms", "codec.decode");
      ];
    layer_metrics tr ~untraced_s:!untraced_s;
    count "reads" !reads;
    count "clusters" !clusters;
    count "strands" !strands_n;
    count "edit_comparisons" !edits;
    count "merges" !merges;
    count "perfect_consensus" !perfect
  end;
  count "ops" n;
  count "failed" !failed

(* ---------- stores (archive, serve-hot) ---------- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Store.error_message e)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0
let manifest_path st = Filename.concat (Store.dir st) "MANIFEST.json"

let disk_bytes st =
  List.fold_left (fun a f -> a + file_size f) (file_size (manifest_path st)) (Store.shard_files st)

let key_name k = Printf.sprintf "obj%03d" k

(* A fresh store preloaded with [n_keys] objects of [object_bytes]
   random bytes, plus one warm-up get. Returns the store and the model
   of what each key must read back. *)
let preload ~rep ~n_keys ~object_bytes =
  let dir = Filename.concat !work_dir (Printf.sprintf "%s-store-%d" !workload rep) in
  rm_rf dir;
  let st = ok_or_fail "init" (Store.init ~dir ~seed:!seed ()) in
  let model = Hashtbl.create n_keys in
  for k = 0 to n_keys - 1 do
    let data = random_bytes (stream "object" k) object_bytes in
    ok_or_fail "preload put" (Store.put st ~key:(key_name k) data);
    Hashtbl.replace model (key_name k) data
  done;
  let warm = ok_or_fail "warm-up get" (Store.get st ~key:(key_name 0)) in
  check (Bytes.equal warm (Hashtbl.find model (key_name 0))) "warm-up get returned wrong bytes";
  (st, model)

let live_bytes model = Hashtbl.fold (fun _ b a -> a + Bytes.length b) model 0

let store_layer_metrics st ~hits ~misses ~passes ~gets ~written ~user_written =
  let s = Store.stats st in
  metric "store.cache_hit_ratio" "ratio" (ratio (fi hits) (fi (hits + misses)));
  metric "store.passes_per_get" "ratio" (ratio (fi passes) (fi gets));
  metric "store.dead_strand_ratio" "ratio" (ratio (fi s.dead_strands) (fi s.n_strands));
  metric "store.bytes_written_per_user_byte" "ratio" (ratio (fi written) (fi user_written));
  metric "store.shards" "count" (fi s.n_shards);
  metric "store.strands" "count" (fi s.n_strands)

let store_counts st =
  let s = Store.stats st in
  count "strands_on_disk" s.n_strands;
  count "dead_strands" s.dead_strands;
  count "shards" s.n_shards

(* ---------- archive ---------- *)

type archive_op = Get of int | Overwrite of int * Bytes.t

type archive_result = {
  op : archive_op;
  wall : float;
  cold : bool;  (** a get that missed the decoded-object cache *)
  ok : bool;
  bytes : int;  (** user bytes read or written *)
  written : int;  (** bytes the store rewrote on disk for a write *)
  factor : float;  (** brings [wall] to the reference host speed *)
}

let run_archive () =
  let n_keys = 128 and object_bytes = 1024 in
  Dna.Par.set_default_domains 1;
  note "domains" "1";
  let n = n_ops ~per_second:4.0 in
  let ops =
    Array.init n (fun i ->
        let r = stream "archive-op" i in
        let k = Dna.Rng.int r n_keys in
        (* Exactly one op in every five is an overwrite, at a seeded
           position, so the 20% write share does not vary with the seed. *)
        if i mod 5 = Dna.Rng.int (stream "archive-write" (i / 5)) 5 then
          Overwrite (k, random_bytes r object_bytes)
        else Get k)
  in
  let stores = timed_setup (fun rep -> preload ~rep ~n_keys ~object_bytes) in
  attempted := n;
  (* One operation on one store; [tr] wraps the call in a span. *)
  let run_op ?tr (st, model) i op =
    let factor = host_factor () in
    let span name f = match tr with Some tr -> Trace.with_span tr ~op:i name f | None -> f () in
    match op with
    | Get k ->
        let key = key_name k in
        let misses = (Store.stats st).cache_misses in
        let t = now () in
        let r = span "op" (fun () -> span "store.get" (fun () -> Store.get st ~key)) in
        let wall = now () -. t in
        (* An error fails the op; wrong bytes also make the run incorrect. *)
        let ok =
          match r with
          | Ok b ->
              let right = Bytes.equal b (Hashtbl.find model key) in
              check right (Printf.sprintf "op %d: get %s returned bytes other than its last write" i key);
              right
          | Error _ -> false
        in
        let bytes = match r with Ok b -> Bytes.length b | Error _ -> 0 in
        let cold = (Store.stats st).cache_misses > misses in
        { op; wall; cold; ok; bytes; written = 0; factor }
    | Overwrite (k, data) ->
        let key = key_name k in
        let t = now () in
        let r = span "op" (fun () -> span "store.overwrite" (fun () -> Store.overwrite st ~key data)) in
        let wall = now () -. t in
        let ok = Result.is_ok r in
        if ok then Hashtbl.replace model key data;
        (* A put rewrites the object's whole shard file and the
           manifest: those are the bytes it wrote. *)
        let written =
          match Option.bind (Store.object_shard st ~key) (fun shard -> Store.shard_path st ~shard) with
          | Some path when ok -> file_size path + file_size (manifest_path st)
          | _ -> 0
        in
        { op; wall; cold = false; ok; bytes = Bytes.length data; written; factor }
  in
  let counters (st, _) =
    let s = Store.stats st in
    (s.cache_hits, s.cache_misses, Store.sequencing_passes st)
  in
  let is_get r = match r.op with Get _ -> true | Overwrite _ -> false in
  let summarize results =
    let gets = List.filter is_get results and puts = List.filter (fun r -> not (is_get r)) results in
    (gets, puts)
  in
  let ((st, model) as store) = List.nth stores (setup_reps - 1) in
  if not !traced then begin
    let h0, m0, p0 = counters store in
    let results = Array.to_list (Array.mapi (run_op store) ops) in
    let h1, m1, p1 = counters store in
    let hits = h1 - h0 and misses = m1 - m0 and passes = p1 - p0 in
    let gets, puts = summarize results in
    failed := List.length (List.filter (fun r -> not r.ok) results);
    let report scale =
      let wall r = scale r.factor r.wall in
      let get_walls = List.map wall gets in
      throughput (List.map (fun r -> (r.bytes, 1, wall r)) results);
      metric ~timed:true "file_p50_ms" "ms" (ms (median (List.map wall (List.filter (fun r -> r.cold) gets))));
      metric ~timed:true "get_p50_ms" "ms" (ms (median get_walls));
      metric ~timed:true "get_tail_ms" "ms" (ms (fst (tail get_walls)));
      metric ~timed:true "put_p50_ms" "ms" (ms (median (List.map wall puts)))
    in
    report scaled;
    raw (fun () -> report unscaled);
    metric "recovered_frac" "ratio"
      (ratio (fi (List.length (List.filter (fun r -> r.ok) gets))) (fi (List.length gets)));
    metric "space_amp" "B/B" (ratio (fi (disk_bytes st)) (fi (live_bytes model)));
    note_f "get_tail_percentile" (100.0 *. snd (tail (List.map (fun r -> r.wall) gets)));
    count "gets" (List.length gets);
    count "overwrites" (List.length puts);
    count "cold_gets" (List.length (List.filter (fun r -> r.cold) gets));
    count "cache_hits" hits;
    count "cache_misses" misses;
    count "sequencing_passes" passes
  end
  else begin
    (* Each op runs untraced on one store, then traced on an identically
       set-up twin, so both sides see the same warm state. The untraced
       results are the reference the traced ones must match, and their
       wall is what the tracing overhead is measured against. *)
    let reference = List.nth stores (setup_reps - 2) in
    let tr = Trace.create () in
    let h0, m0, p0 = counters store in
    let untraced_s = ref 0.0 and par = ref (0, 0.0) in
    let results =
      List.mapi
        (fun i op ->
          let r = run_op reference i op in
          untraced_s := !untraced_s +. r.wall;
          let t0, w0 = par_totals () in
          let t = run_op ~tr store i op in
          let t1, w1 = par_totals () in
          par := (fst !par + t1 - t0, snd !par +. w1 -. w0);
          check
            (r.ok = t.ok && r.cold = t.cold)
            (Printf.sprintf "op %d: traced pass disagrees with the untraced pass" i);
          t)
        (Array.to_list ops)
    in
    let h1, m1, p1 = counters store in
    let hits = h1 - h0 and misses = m1 - m0 and passes = p1 - p0 in
    let gets, puts = summarize results in
    failed := List.length (List.filter (fun r -> not r.ok) results);
    let written = List.fold_left (fun a r -> a + r.written) 0 puts in
    let user_written = List.fold_left (fun a r -> a + r.bytes) 0 puts in
    zero_layer_counts (sim_layer_names @ serve_layer_names);
    store_layer_metrics st ~hits ~misses ~passes ~gets:(List.length gets) ~written ~user_written;
    par_metrics !par;
    let p50 rs = ms (median (List.map (fun r -> r.wall) rs)) in
    note_f "store.put_ms" (p50 puts);
    note_f "store.get_miss_ms" (p50 (List.filter (fun r -> r.cold) gets));
    note_f "store.get_hit_ms" (p50 (List.filter (fun r -> not r.cold) gets));
    layer_metrics tr ~untraced_s:!untraced_s;
    count "gets" (List.length gets);
    count "cache_hits" hits;
    count "cache_misses" misses;
    count "sequencing_passes" passes
  end;
  store_counts st;
  count "ops" n;
  count "failed" !failed;
  List.iteri (fun rep _ -> rm_rf (Filename.concat !work_dir (Printf.sprintf "%s-store-%d" !workload rep))) stores

(* ---------- serve-hot ---------- *)

type serve_pass = {
  rounds : Serve.completion list list;  (** each round's completions, admission order *)
  walls : float list;  (** each turn's wall: its submits and its round *)
  factors : float list;  (** each turn's factor to the reference host speed *)
  hits : int;
  misses : int;
  passes : int;
  serve_stats : Serve.stats;
  rejected : int;
}

let run_serve () =
  let n_keys = 16 and object_bytes = 1024 and n_clients = 2 and domains = 2 in
  note "domains" (string_of_int domains);
  let config = { Serve.default_config with domains } in
  let keys = List.init n_keys key_name in
  let n = n_ops ~per_second:60.0 in
  (* Keys are drawn zipf(0.99). Exactly one operation in every block of
     20 is an overwrite (1 KB, like the preload), at a seeded position,
     so the 5% write share does not vary from seed to seed. *)
  let cdf = Serve.Workload.zipf_cdf ~n:n_keys ~s:0.99 in
  let ops =
    Array.init n (fun i ->
        let r = stream "serve-op" i in
        let key = key_name (Serve.Workload.zipf_draw cdf r) in
        if i mod 20 = Dna.Rng.int (stream "serve-write" (i / 20)) 20 then
          Serve.Overwrite { key; data = random_bytes r object_bytes }
        else Serve.Get { key })
  in
  let stores = timed_setup (fun rep -> preload ~rep ~n_keys ~object_bytes) in
  attempted := n;
  (* A closed loop of [n_clients] clients on one store: each turn every
     client puts its next request in flight, then the scheduler serves
     one round. [turn tr] runs one turn (a tracer wraps every Serve call
     in a span; a round is one traced op); [finish ()] sums it up. *)
  let start (st, _) =
    let server = Serve.create ~config st in
    let s0 = Store.stats st and passes0 = Store.sequencing_passes st in
    let rounds = ref [] and n_rounds = ref 0 and rejected = ref 0 and next = ref 0 in
    let walls = ref [] and factors = ref [] in
    let turn tr =
      let op = !n_rounds in
      factors := host_factor () :: !factors;
      let span name f = match tr with Some tr -> Trace.with_span tr ~op name f | None -> f () in
      let t = now () in
      span "op" (fun () ->
          for client = 0 to n_clients - 1 do
            if !next < n then begin
              (match span "serve.submit" (fun () -> Serve.submit server ~client ops.(!next)) with
              | Ok _ -> ()
              | Error _ -> incr rejected);
              incr next
            end
          done;
          rounds := span "serve.step" (fun () -> Serve.step server) :: !rounds);
      incr n_rounds;
      walls := (now () -. t) :: !walls
    in
    let finish () =
      let s1 = Store.stats st in
      {
        rounds = List.rev !rounds;
        walls = List.rev !walls;
        factors = List.rev !factors;
        hits = s1.cache_hits - s0.Store.cache_hits;
        misses = s1.cache_misses - s0.cache_misses;
        passes = Store.sequencing_passes st - passes0;
        serve_stats = Serve.stats server;
        rejected = !rejected;
      }
    in
    (next, turn, finish)
  in
  (* Replay the rounds against a model of the store: a get must return
     its key's last acknowledged write as of the round's start (gets of
     a round read the round-start state, writes apply after them). The
     replay also marks the gets that ran the wetlab path: a key is cold
     from its preload (the warm-up get cached the first key) and after
     each overwrite, until a get caches it. *)
  let replay (_, model) p =
    let model = Hashtbl.copy model in
    let cold = Hashtbl.create n_keys in
    List.iter (fun k -> if k <> key_name 0 then Hashtbl.replace cold k ()) keys;
    let verdicts = ref [] in
    List.iter
      (fun round ->
        let warmed = ref [] in
        List.iter
          (fun (c : Serve.completion) ->
            match (c.request, c.result) with
            | Get { key }, Ok (Serve.Value b) ->
                let is_cold = Hashtbl.mem cold key in
                if is_cold then warmed := key :: !warmed;
                let right = Bytes.equal b (Hashtbl.find model key) in
                check right
                  (Printf.sprintf "ticket %d: get %s returned bytes other than its last write" c.ticket key);
                verdicts := (c, right, is_cold) :: !verdicts
            | Get _, _ -> verdicts := (c, false, false) :: !verdicts
            | _ -> ())
          round;
        List.iter (Hashtbl.remove cold) !warmed;
        List.iter
          (fun (c : Serve.completion) ->
            match (c.request, c.result) with
            | Overwrite { key; data }, Ok Serve.Ack ->
                Hashtbl.replace model key data;
                Hashtbl.replace cold key ();
                verdicts := (c, true, false) :: !verdicts
            | Get _, _ -> ()
            | _ -> verdicts := (c, false, false) :: !verdicts)
          round)
      p.rounds;
    (List.rev !verdicts, model)
  in
  let latency (c : Serve.completion) = c.completed_s -. c.submitted_s in
  let is_get (c : Serve.completion) = match c.request with Get _ -> true | _ -> false in
  let ((st, _) as store) = List.nth stores (setup_reps - 1) in
  (* In a traced run each round runs untraced on one store, then traced
     on an identically set-up twin, so both sides see the same warm
     state; the untraced side is the reference. *)
  let next, turn, finish = start (if !traced then List.nth stores (setup_reps - 2) else store) in
  let tr = Trace.create () in
  let twin = if !traced then Some (start store) else None in
  let par = ref (0, 0.0) in
  while !next < n do
    turn None;
    Option.iter
      (fun (_, traced_turn, _) ->
        let t0, w0 = par_totals () in
        traced_turn (Some tr);
        let t1, w1 = par_totals () in
        par := (fst !par + t1 - t0, snd !par +. w1 -. w0))
      twin
  done;
  let reference = finish () in
  let verdicts, live = replay store reference in
  failed := reference.rejected + List.length (List.filter (fun (_, ok, _) -> not ok) verdicts);
  let cold_gets = List.filter (fun (_, _, cold) -> cold) verdicts in
  check
    (List.length cold_gets = reference.misses)
    (Printf.sprintf "cold-get replay found %d misses, the store counted %d" (List.length cold_gets)
       reference.misses);
  if not !traced then begin
    let completions = List.map (fun (c, _, _) -> c) verdicts in
    let gets = List.filter is_get completions in
    let puts = List.filter (fun c -> not (is_get c)) completions in
    (* Every request completes in the round of the turn that submitted
       it, so a latency takes that turn's factor. *)
    let factor = Hashtbl.create n in
    List.iter2
      (fun round f -> List.iter (fun (c : Serve.completion) -> Hashtbl.replace factor c.ticket f) round)
      reference.rounds reference.factors;
    let served (c : Serve.completion) =
      match (c.request, c.result) with
      | Get _, Ok (Serve.Value b) -> Bytes.length b
      | Overwrite { data; _ }, Ok Serve.Ack -> Bytes.length data
      | _ -> 0
    in
    let report scale =
      let latency (c : Serve.completion) = scale (Hashtbl.find factor c.ticket) (latency c) in
      let cold_latency = List.map (fun (c, _, _) -> latency c) cold_gets in
      throughput
        (List.map2
           (fun round (wall, f) ->
             (List.fold_left (fun a c -> a + served c) 0 round, List.length round, scale f wall))
           reference.rounds
           (List.combine reference.walls reference.factors));
      metric ~timed:true "file_p50_ms" "ms" (ms (median cold_latency));
      metric ~timed:true "get_p50_ms" "ms" (ms (median cold_latency));
      metric ~timed:true "get_tail_ms" "ms" (ms (fst (tail (List.map latency gets))));
      metric ~timed:true "put_p50_ms" "ms" (ms (median (List.map latency puts)))
    in
    report scaled;
    raw (fun () -> report unscaled);
    metric "recovered_frac" "ratio"
      (ratio
         (fi (List.length (List.filter (fun (c, ok, _) -> ok && is_get c) verdicts)))
         (fi (List.length gets)));
    metric "space_amp" "B/B" (ratio (fi (disk_bytes st)) (fi (live_bytes live)));
    note_f "get_tail_percentile" (100.0 *. snd (tail (List.map latency gets)));
    note_f "all_gets_p50_ms" (ms (median (List.map latency gets)));
    store_counts st
  end
  else begin
    (* The traced side must answer every request identically. *)
    let p = match twin with Some (_, _, traced_finish) -> traced_finish () | None -> reference in
    let same (a : Serve.completion) (b : Serve.completion) =
      a.ticket = b.ticket && a.request = b.request
      &&
      match (a.result, b.result) with
      | Ok (Serve.Value x), Ok (Serve.Value y) -> Bytes.equal x y
      | Ok Serve.Ack, Ok Serve.Ack -> true
      | _ -> false
    in
    let flat p = List.concat p.rounds in
    check
      (List.length (flat p) = List.length (flat reference) && List.for_all2 same (flat p) (flat reference))
      "the traced pass answered differently from the untraced pass";
    let s = p.serve_stats in
    zero_layer_counts sim_layer_names;
    store_layer_metrics st ~hits:p.hits ~misses:p.misses ~passes:p.passes ~gets:s.reads ~written:0
      ~user_written:0;
    metric "serve.rounds" "count" (fi s.rounds);
    metric "serve.coalesced_ratio" "ratio" (ratio (fi s.coalesced_reads) (fi s.reads));
    metric "serve.passes" "count" (fi p.passes);
    metric "serve.rejected" "count" (fi s.rejected);
    par_metrics !par;
    let steps = List.map ms (Trace.durations tr "serve.step") in
    note_f "serve.round_p50_ms" (median steps);
    note_f "serve.round_p99_ms" (percentile steps 0.99);
    layer_metrics tr ~untraced_s:(sum reference.walls);
    count "coalesced_reads" s.coalesced_reads
  end;
  let s = reference.serve_stats in
  count "ops" n;
  count "rounds" s.rounds;
  count "reads" s.reads;
  count "writes" s.writes;
  count "cold_gets" (List.length cold_gets);
  count "cache_hits" reference.hits;
  count "cache_misses" reference.misses;
  count "sequencing_passes" reference.passes;
  count "rejected" reference.rejected;
  count "failed" !failed;
  List.iteri (fun rep _ -> rm_rf (Filename.concat !work_dir (Printf.sprintf "%s-store-%d" !workload rep))) stores

(* ---------- main ---------- *)

let () =
  let run =
    match !workload with
    | "sim-nw" -> run_sim
    | "archive" -> run_archive
    | "serve-hot" -> run_serve
    | w ->
        Printf.eprintf "bench: unknown workload %S (sim-nw, archive, serve-hot)\n" w;
        exit 2
  in
  if not (Sys.file_exists !work_dir) then Sys.mkdir !work_dir 0o755;
  let calib_ms = calibrate () in
  run ();
  if not !traced then metric "peak_rss_mb" "MB" (peak_rss_mb ());
  note_f "calib_ms" calib_ms;
  note_f "calib_end_ms" (calibrate ());
  note_f "host.kernel_p50_ms" (median !kernel_samples);
  note_f "host.kernel_p25_ms" (percentile !kernel_samples 0.25);
  note_f "host.kernel_p75_ms" (percentile !kernel_samples 0.75);
  note "host.kernel_samples" (string_of_int (List.length !kernel_samples));
  note "recommended_domain_count" (string_of_int (Domain.recommended_domain_count ()));
  note_s "ocaml_version" Sys.ocaml_version;
  note "seed" (string_of_int !seed);
  note "seconds" (string_of_int !seconds);
  note_s "workload" !workload;
  note "trace" (if !traced then "1" else "0");
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) (List.rev !problems);
  List.iter (fun (name, v, unit) -> Printf.printf "%-36s %14.4f %s\n" name v unit) (List.rev !metrics);
  Printf.printf "INFO %s\n" (json_obj (List.rev !info));
  Printf.printf "COUNTS %s\n" (json_obj (List.rev_map (fun (k, v) -> (k, string_of_int v)) !counts));
  Printf.printf "%s\n"
    (json_obj
       [
         ("correct", string_of_bool (!problems = []));
         ("attempted", string_of_int !attempted);
         ("failed", string_of_int !failed);
         ( "metrics",
           json_obj
             (List.rev_map
                (fun (name, v, unit) ->
                  (name, json_obj [ ("value", json_num v); ("unit", Printf.sprintf "%S" unit) ]))
                !metrics) );
       ])
