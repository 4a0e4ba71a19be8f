(* Tests for signatures, union-find, the clustering algorithm, auto
   threshold configuration and clustering metrics. *)

let rng () = Dna.Rng.create 2718

(* ---------- union-find ---------- *)

let test_uf_basics () =
  let uf = Clustering.Union_find.create 5 in
  Alcotest.(check int) "initially n clusters" 5 (Clustering.Union_find.n_clusters uf);
  Clustering.Union_find.union uf 0 1;
  Clustering.Union_find.union uf 3 4;
  Alcotest.(check int) "after two unions" 3 (Clustering.Union_find.n_clusters uf);
  Alcotest.(check bool) "0 ~ 1" true (Clustering.Union_find.same uf 0 1);
  Alcotest.(check bool) "1 !~ 2" false (Clustering.Union_find.same uf 1 2);
  Clustering.Union_find.union uf 1 4;
  Alcotest.(check bool) "transitive" true (Clustering.Union_find.same uf 0 3)

let test_uf_idempotent_union () =
  let uf = Clustering.Union_find.create 3 in
  Clustering.Union_find.union uf 0 1;
  Clustering.Union_find.union uf 0 1;
  Clustering.Union_find.union uf 1 0;
  Alcotest.(check int) "count stable" 2 (Clustering.Union_find.n_clusters uf)

let test_uf_clusters_partition () =
  let r = rng () in
  let n = 60 in
  let uf = Clustering.Union_find.create n in
  for _ = 1 to 40 do
    Clustering.Union_find.union uf (Dna.Rng.int r n) (Dna.Rng.int r n)
  done;
  let clusters = Clustering.Union_find.clusters uf in
  let all = List.concat_map Array.to_list clusters in
  Alcotest.(check int) "covers all" n (List.length all);
  Alcotest.(check int) "no duplicates" n (List.length (List.sort_uniq compare all));
  Alcotest.(check int) "cluster count matches" (Clustering.Union_find.n_clusters uf)
    (List.length clusters)

(* ---------- signatures ---------- *)

let test_signature_identical_reads () =
  let r = rng () in
  let s = Dna.Strand.random r 60 in
  List.iter
    (fun kind ->
      let a = Clustering.Signature.compute ~q:4 kind s in
      let b = Clustering.Signature.compute ~q:4 kind s in
      Alcotest.(check int) "distance zero" 0 (Clustering.Signature.distance a b))
    [ Clustering.Signature.Qgram; Clustering.Signature.Wgram ]

let test_signature_separation () =
  (* Same-cluster distances must sit clearly below unrelated ones. *)
  let r = rng () in
  let mutate s =
    Dna.Strand.of_codes
      (Array.map (fun c -> if Dna.Rng.float r < 0.05 then Dna.Rng.int r 4 else c)
         (Dna.Strand.to_codes s))
  in
  List.iter
    (fun kind ->
      let same = ref 0 and diff = ref 0 and n = 40 in
      for _ = 1 to n do
        let a = Dna.Strand.random r 100 in
        let b = mutate a in
        let c = Dna.Strand.random r 100 in
        let sig_of s = Clustering.Signature.compute ~q:4 kind s in
        same := !same + Clustering.Signature.distance (sig_of a) (sig_of b);
        diff := !diff + Clustering.Signature.distance (sig_of a) (sig_of c)
      done;
      Alcotest.(check bool)
        (Printf.sprintf "same %d << diff %d" !same !diff)
        true
        (float_of_int !same < 0.6 *. float_of_int !diff))
    [ Clustering.Signature.Qgram; Clustering.Signature.Wgram ]

let test_signature_mixed_kinds_rejected () =
  let s = Dna.Strand.of_string "ACGTACGTAC" in
  let q = Clustering.Signature.compute ~q:3 Clustering.Signature.Qgram s in
  let w = Clustering.Signature.compute ~q:3 Clustering.Signature.Wgram s in
  Alcotest.check_raises "mixed kinds"
    (Invalid_argument "Signature.distance: mixed signature kinds") (fun () ->
      ignore (Clustering.Signature.distance q w))

let test_signature_qgram_is_presence () =
  (* "ACGT" with q=2 contains grams AC, CG, GT and no others. *)
  match Clustering.Signature.compute ~q:2 Clustering.Signature.Qgram (Dna.Strand.of_string "ACGT") with
  | Clustering.Signature.Q bits ->
      let count = ref 0 in
      Bytes.iter (fun c -> if c = '\001' then incr count) bits;
      Alcotest.(check int) "three grams present" 3 !count;
      Alcotest.(check int) "dictionary size 16" 16 (Bytes.length bits)
  | Clustering.Signature.W _ -> Alcotest.fail "wrong kind"

let test_signature_wgram_positions () =
  (* "AACG": gram AA at 0, AC at 1, CG at 2. *)
  match Clustering.Signature.compute ~q:2 Clustering.Signature.Wgram (Dna.Strand.of_string "AACG") with
  | Clustering.Signature.W pos ->
      Alcotest.(check int) "AA at 0" 0 pos.(0);
      (* AC = code 0*4+1 = 1 *)
      Alcotest.(check int) "AC at 1" 1 pos.(1);
      (* CG = 1*4+2 = 6 *)
      Alcotest.(check int) "CG at 2" 2 pos.(6);
      (* TT = 15 absent *)
      Alcotest.(check int) "TT absent" (Clustering.Signature.absent_position ~read_len:4) pos.(15)
  | Clustering.Signature.Q _ -> Alcotest.fail "wrong kind"

(* ---------- clustering ---------- *)

let make_reads ?(n_strands = 40) ?(coverage = 8) ?(error_rate = 0.05) ?(len = 100) r =
  let ch = Simulator.Iid_channel.create_rate ~error_rate in
  let strands = Array.init n_strands (fun _ -> Dna.Strand.random r len) in
  let params = Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed coverage) in
  let reads = Simulator.Sequencer.sequence params ch r strands in
  ( Array.map (fun rd -> rd.Simulator.Sequencer.seq) reads,
    Array.map (fun rd -> rd.Simulator.Sequencer.origin) reads )

let run_clustering ?(kind = Clustering.Signature.Qgram) r reads =
  let read_len = Dna.Strand.length reads.(0) in
  let params = Clustering.Cluster.default_params ~kind ~read_len () in
  let config = Clustering.Auto_config.configure params r reads in
  let params = Clustering.Auto_config.apply config params in
  Clustering.Cluster.run_scaled params r reads

let test_clustering_recovers_planted () =
  let r = rng () in
  let reads, truth = make_reads r in
  List.iter
    (fun kind ->
      let result = run_clustering ~kind r reads in
      let acc = Clustering.Metrics.accuracy ~truth result.Clustering.Cluster.clusters in
      Alcotest.(check bool)
        (Printf.sprintf "accuracy %.3f >= 0.9" acc)
        true (acc >= 0.9);
      let purity = Clustering.Metrics.purity ~truth result.Clustering.Cluster.clusters in
      Alcotest.(check bool) (Printf.sprintf "purity %.3f >= 0.98" purity) true (purity >= 0.98))
    [ Clustering.Signature.Qgram; Clustering.Signature.Wgram ]

let test_clustering_noiseless_exact () =
  (* With no noise, identical reads must collapse into exactly the
     underlying clusters with no edit-distance comparisons wasted. *)
  let r = rng () in
  let strands = Array.init 30 (fun _ -> Dna.Strand.random r 80) in
  let params = Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed 5) in
  let reads = Simulator.Sequencer.sequence params Simulator.Channel.noiseless r strands in
  let rs = Array.map (fun rd -> rd.Simulator.Sequencer.seq) reads in
  let truth = Array.map (fun rd -> rd.Simulator.Sequencer.origin) reads in
  let result = run_clustering r rs in
  Alcotest.(check (float 0.01)) "accuracy 1.0" 1.0
    (Clustering.Metrics.accuracy ~truth result.Clustering.Cluster.clusters)

let test_clustering_empty_input () =
  let r = rng () in
  let params = Clustering.Cluster.default_params ~read_len:100 () in
  let result = Clustering.Cluster.run_scaled params r [||] in
  Alcotest.(check int) "no clusters" 0 (List.length result.Clustering.Cluster.clusters)

let test_clustering_singleton_input () =
  let r = rng () in
  let reads = [| Dna.Strand.random r 100 |] in
  let result = run_clustering r reads in
  Alcotest.(check int) "one cluster" 1 (List.length result.Clustering.Cluster.clusters)

let test_clustering_stats_populated () =
  let r = rng () in
  let reads, _ = make_reads r in
  let result = run_clustering r reads in
  let s = result.Clustering.Cluster.stats in
  Alcotest.(check bool) "signature comparisons happened" true (s.Clustering.Cluster.signature_comparisons > 0);
  Alcotest.(check bool) "merges happened" true (s.Clustering.Cluster.merges > 0);
  Alcotest.(check bool) "time recorded" true (s.Clustering.Cluster.clustering_time > 0.0)

let test_clustering_parallel_same_quality () =
  (* Domains change scheduling, not merge decisions' admissibility:
     parallel run must reach comparable accuracy. *)
  let r1 = Dna.Rng.create 99 and r2 = Dna.Rng.create 99 in
  let reads, truth = make_reads (Dna.Rng.create 5) in
  let read_len = Dna.Strand.length reads.(0) in
  let base = Clustering.Cluster.default_params ~read_len () in
  let cfg = Clustering.Auto_config.configure base (Dna.Rng.create 1) reads in
  let base = Clustering.Auto_config.apply cfg base in
  let seq_result = Clustering.Cluster.run_scaled { base with domains = 1 } r1 reads in
  let par_result = Clustering.Cluster.run_scaled { base with domains = 2 } r2 reads in
  let acc_seq = Clustering.Metrics.accuracy ~truth seq_result.Clustering.Cluster.clusters in
  let acc_par = Clustering.Metrics.accuracy ~truth par_result.Clustering.Cluster.clusters in
  Alcotest.(check bool) "both accurate" true (acc_seq >= 0.9 && acc_par >= 0.9)

let test_clustering_parallel_identical_assignment () =
  (* Stronger than "comparable accuracy": merge decisions are computed
     in pure workers and applied serially in a fixed order, so under the
     same seed the assignment must be bit-identical for every worker
     count. *)
  let reads, _ = make_reads (Dna.Rng.create 5) in
  let read_len = Dna.Strand.length reads.(0) in
  let base = Clustering.Cluster.default_params ~read_len () in
  let cfg = Clustering.Auto_config.configure base (Dna.Rng.create 1) reads in
  let base = Clustering.Auto_config.apply cfg base in
  let run domains =
    (Clustering.Cluster.run_scaled { base with domains } (Dna.Rng.create 99) reads)
      .Clustering.Cluster.assignment
  in
  let serial = run 1 in
  List.iter
    (fun domains ->
      Alcotest.(check (array int))
        (Printf.sprintf "domains=%d identical to serial" domains)
        serial (run domains))
    [ 2; 3; 5 ]

let test_read_clusters_materialization () =
  let r = rng () in
  let reads, _ = make_reads ~n_strands:10 ~coverage:4 r in
  let result = run_clustering r reads in
  let clusters = Clustering.Cluster.read_clusters result reads in
  let total = List.fold_left (fun acc c -> acc + List.length c) 0 clusters in
  Alcotest.(check int) "all reads kept" (Array.length reads) total

(* ---------- auto configuration ---------- *)

let test_auto_config_thresholds_ordered () =
  let r = rng () in
  let reads, _ = make_reads r in
  let params = Clustering.Cluster.default_params ~read_len:100 () in
  let config = Clustering.Auto_config.configure params r reads in
  Alcotest.(check bool) "theta_low < theta_high" true
    (config.Clustering.Auto_config.theta_low < config.Clustering.Auto_config.theta_high);
  Alcotest.(check bool) "edit threshold positive" true
    (config.Clustering.Auto_config.edit_threshold > 0)

let test_auto_config_separates_modes () =
  (* At low error the sampled distances show the Figure 5 jump; the
     fitted thresholds must bracket same-cluster distances. *)
  let r = rng () in
  let reads, truth = make_reads ~error_rate:0.03 r in
  let params = Clustering.Cluster.default_params ~read_len:100 () in
  let config = Clustering.Auto_config.configure params r reads in
  (* Measure where same-cluster signature distances actually sit. *)
  let sig_of i = Clustering.Signature.compute ~q:4 Clustering.Signature.Qgram reads.(i) in
  let max_same = ref 0 and checked = ref 0 in
  (try
     for i = 0 to Array.length reads - 1 do
       for j = i + 1 to min (Array.length reads - 1) (i + 20) do
         if truth.(i) = truth.(j) then begin
           max_same := max !max_same (Clustering.Signature.distance (sig_of i) (sig_of j));
           incr checked;
           if !checked > 150 then raise Exit
         end
       done
     done
   with Exit -> ());
  Alcotest.(check bool)
    (Printf.sprintf "theta_high %d >= typical same distance" config.Clustering.Auto_config.theta_high)
    true
    (config.Clustering.Auto_config.theta_high * 2 >= !max_same)

let test_figure5_series_sorted () =
  let r = rng () in
  let reads, _ = make_reads r in
  let params = Clustering.Cluster.default_params ~read_len:100 () in
  let config = Clustering.Auto_config.configure params r reads in
  let series = Clustering.Auto_config.figure5_series config in
  let sorted = Array.copy series in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "sorted ascending" sorted series;
  Alcotest.(check bool) "nonempty" true (Array.length series > 0)

(* ---------- metrics ---------- *)

let test_metrics_perfect_clustering () =
  let truth = [| 0; 0; 1; 1; 2 |] in
  let clusters = [ [| 0; 1 |]; [| 2; 3 |]; [| 4 |] ] in
  Alcotest.(check (float 1e-9)) "accuracy 1" 1.0 (Clustering.Metrics.accuracy ~truth clusters);
  Alcotest.(check (float 1e-9)) "purity 1" 1.0 (Clustering.Metrics.purity ~truth clusters);
  Alcotest.(check (float 1e-9)) "rand 1" 1.0 (Clustering.Metrics.rand_index ~truth clusters)

let test_metrics_split_cluster () =
  let truth = [| 0; 0; 0; 0 |] in
  let clusters = [ [| 0; 1 |]; [| 2; 3 |] ] in
  (* No computed cluster covers the whole true cluster. *)
  Alcotest.(check (float 1e-9)) "accuracy 0" 0.0 (Clustering.Metrics.accuracy ~truth clusters);
  (* gamma 0.5: a half-cluster suffices *)
  Alcotest.(check (float 1e-9)) "gamma 0.5 recovers" 1.0
    (Clustering.Metrics.accuracy ~gamma:0.5 ~truth clusters);
  Alcotest.(check (float 1e-9)) "purity still 1" 1.0 (Clustering.Metrics.purity ~truth clusters)

let test_metrics_merged_cluster () =
  let truth = [| 0; 0; 1; 1 |] in
  let clusters = [ [| 0; 1; 2; 3 |] ] in
  Alcotest.(check (float 1e-9)) "accuracy 0" 0.0 (Clustering.Metrics.accuracy ~truth clusters);
  Alcotest.(check (float 1e-9)) "purity 0.5" 0.5 (Clustering.Metrics.purity ~truth clusters)

let test_metrics_foreign_element_blocks_recovery () =
  let truth = [| 0; 0; 1 |] in
  let clusters = [ [| 0; 1; 2 |] ] in
  Alcotest.(check (float 1e-9)) "not recovered with foreign read" 0.0
    (Clustering.Metrics.accuracy ~gamma:0.5 ~truth clusters)

(* ---------- QCheck ---------- *)

let prop_uf_union_monotone =
  QCheck.Test.make ~name:"union never increases cluster count" ~count:100
    QCheck.(pair (int_range 2 40) (list (pair (int_bound 39) (int_bound 39))))
    (fun (n, unions) ->
      let uf = Clustering.Union_find.create n in
      List.for_all
        (fun (a, b) ->
          let a = a mod n and b = b mod n in
          let before = Clustering.Union_find.n_clusters uf in
          Clustering.Union_find.union uf a b;
          let after = Clustering.Union_find.n_clusters uf in
          after = before || after = before - 1)
        unions)

let prop_signature_distance_symmetric =
  QCheck.Test.make ~name:"signature distance symmetric" ~count:100
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 4 40) (int_bound 3))
              (list_of_size (QCheck.Gen.int_range 4 40) (int_bound 3)))
    (fun (a, b) ->
      let sa = Dna.Strand.of_codes (Array.of_list a) in
      let sb = Dna.Strand.of_codes (Array.of_list b) in
      List.for_all
        (fun kind ->
          let xa = Clustering.Signature.compute ~q:3 kind sa in
          let xb = Clustering.Signature.compute ~q:3 kind sb in
          Clustering.Signature.distance xa xb = Clustering.Signature.distance xb xa)
        [ Clustering.Signature.Qgram; Clustering.Signature.Wgram ])

(* ---------- scaled (flat/packed) engine ---------- *)

(* A planted workload shared by the scaled-engine tests. *)
let planted_reads ?(n_refs = 24) ?(coverage = 6) ?(error_rate = 0.06) seed =
  let r = Dna.Rng.create seed in
  let channel = Simulator.Iid_channel.create_rate ~error_rate in
  let refs = Array.init n_refs (fun _ -> Dna.Strand.random r 110) in
  let reads =
    Array.concat
      (Array.to_list
         (Array.map
            (fun s -> Array.init coverage (fun _ -> Simulator.Channel.transmit channel r s))
            refs))
  in
  let truth = Array.init (Array.length reads) (fun i -> i / coverage) in
  (reads, truth)

let test_index_matches_boxed_signatures () =
  let r = rng () in
  let reads = Array.init 40 (fun _ -> Dna.Strand.random r 80) in
  List.iter
    (fun kind ->
      let idx = Clustering.Signature.Index.build ~q:4 kind reads in
      let sigs = Array.map (Clustering.Signature.compute ~q:4 kind) reads in
      for i = 0 to 39 do
        for j = 0 to 39 do
          Alcotest.(check int)
            (Printf.sprintf "distance %d-%d" i j)
            (Clustering.Signature.distance sigs.(i) sigs.(j))
            (Clustering.Signature.Index.distance idx i j)
        done
      done)
    [ Clustering.Signature.Qgram; Clustering.Signature.Wgram ]

let test_index_sharded_build_identical () =
  let r = rng () in
  let reads = Array.init 50 (fun _ -> Dna.Strand.random r 90) in
  List.iter
    (fun kind ->
      let ref_idx = Clustering.Signature.Index.build ~domains:1 ~q:4 kind reads in
      List.iter
        (fun domains ->
          let idx = Clustering.Signature.Index.build ~domains ~q:4 kind reads in
          for i = 0 to 49 do
            for j = 0 to 49 do
              Alcotest.(check int) "sharded = serial"
                (Clustering.Signature.Index.distance ref_idx i j)
                (Clustering.Signature.Index.distance idx i j)
            done
          done)
        [ 2; 4 ])
    [ Clustering.Signature.Qgram; Clustering.Signature.Wgram ]

let scaled_params ?(domains = 1) () =
  { (Clustering.Cluster.default_params ~read_len:110 ()) with domains }

let test_run_pool_matches_run_scaled () =
  let reads, _ = planted_reads 777 in
  let pool = Dna.Strand_pool.create () in
  Array.iter (fun s -> ignore (Dna.Strand_pool.add_strand pool s)) reads;
  let scaled = Clustering.Cluster.run_scaled (scaled_params ()) (Dna.Rng.create 9) reads in
  let pooled = Clustering.Cluster.run_pool (scaled_params ()) (Dna.Rng.create 9) pool in
  Alcotest.(check (array int))
    "pool views cluster identically" scaled.Clustering.Cluster.assignment
    pooled.Clustering.Cluster.assignment

(* Clustering-to-consensus handoff: the index slices [run_pool] emits
   feed [reconstruct_pool] directly, and every cluster's consensus must
   be byte-identical to the boxed reconstruction over the same slice's
   materialized views. This is the seam the pooled pipeline spine runs
   on — no boxed strand per read between clustering and decode. *)
let test_pool_slices_reconstruct_identically () =
  let reads, _ = planted_reads 2718 in
  let pool = Dna.Strand_pool.create () in
  Array.iter (fun s -> ignore (Dna.Strand_pool.add_strand pool s)) reads;
  let result = Clustering.Cluster.run_pool (scaled_params ()) (Dna.Rng.create 9) pool in
  Alcotest.(check bool) "clusters exist" true (result.Clustering.Cluster.clusters <> []);
  List.iteri
    (fun c idxs ->
      let boxed_reads = Array.map (Dna.Strand_pool.get pool) idxs in
      let pooled =
        Reconstruction.Nw_consensus.reconstruct_pool ~target_len:110 pool idxs
      in
      let boxed = Reconstruction.Nw_consensus.reconstruct ~target_len:110 boxed_reads in
      Alcotest.(check bool)
        (Printf.sprintf "cluster %d consensus byte-identical" c)
        true (Dna.Strand.equal pooled boxed);
      let pooled_e = Reconstruction.Ensemble.reconstruct_pool ~target_len:110 pool idxs in
      let boxed_e = Reconstruction.Ensemble.reconstruct ~target_len:110 boxed_reads in
      Alcotest.(check bool)
        (Printf.sprintf "cluster %d ensemble byte-identical" c)
        true (Dna.Strand.equal pooled_e boxed_e))
    result.Clustering.Cluster.clusters

let test_scaled_recovers_planted () =
  let reads, truth = planted_reads 31415 in
  let result = Clustering.Cluster.run_scaled (scaled_params ()) (Dna.Rng.create 6) reads in
  let acc = Clustering.Metrics.accuracy ~truth result.Clustering.Cluster.clusters in
  Alcotest.(check bool)
    (Printf.sprintf "accuracy %.3f >= 0.9" acc)
    true (acc >= 0.9);
  (* Structural sanity: the clusters partition the read set. *)
  let n = Array.length reads in
  let members = List.concat_map Array.to_list result.Clustering.Cluster.clusters in
  Alcotest.(check int) "partition covers reads" n
    (List.length (List.sort_uniq compare members))

let () =
  Alcotest.run "clustering"
    [
      ( "union-find",
        [
          Alcotest.test_case "basics" `Quick test_uf_basics;
          Alcotest.test_case "idempotent union" `Quick test_uf_idempotent_union;
          Alcotest.test_case "clusters partition" `Quick test_uf_clusters_partition;
        ] );
      ( "signature",
        [
          Alcotest.test_case "identical reads" `Quick test_signature_identical_reads;
          Alcotest.test_case "separation" `Quick test_signature_separation;
          Alcotest.test_case "mixed kinds rejected" `Quick test_signature_mixed_kinds_rejected;
          Alcotest.test_case "qgram presence" `Quick test_signature_qgram_is_presence;
          Alcotest.test_case "wgram positions" `Quick test_signature_wgram_positions;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "recovers planted" `Quick test_clustering_recovers_planted;
          Alcotest.test_case "noiseless exact" `Quick test_clustering_noiseless_exact;
          Alcotest.test_case "empty input" `Quick test_clustering_empty_input;
          Alcotest.test_case "singleton input" `Quick test_clustering_singleton_input;
          Alcotest.test_case "stats populated" `Quick test_clustering_stats_populated;
          Alcotest.test_case "parallel same quality" `Quick test_clustering_parallel_same_quality;
          Alcotest.test_case "parallel identical assignment" `Quick
            test_clustering_parallel_identical_assignment;
          Alcotest.test_case "read_clusters total" `Quick test_read_clusters_materialization;
        ] );
      ( "scaled",
        [
          Alcotest.test_case "index = boxed signatures" `Quick
            test_index_matches_boxed_signatures;
          Alcotest.test_case "index sharded build identical" `Quick
            test_index_sharded_build_identical;
          Alcotest.test_case "run_pool = run_scaled" `Quick test_run_pool_matches_run_scaled;
          Alcotest.test_case "pool slices reconstruct identically" `Quick
            test_pool_slices_reconstruct_identically;
          Alcotest.test_case "recovers planted" `Quick test_scaled_recovers_planted;
        ] );
      ( "auto-config",
        [
          Alcotest.test_case "thresholds ordered" `Quick test_auto_config_thresholds_ordered;
          Alcotest.test_case "separates modes" `Quick test_auto_config_separates_modes;
          Alcotest.test_case "figure5 series" `Quick test_figure5_series_sorted;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "perfect clustering" `Quick test_metrics_perfect_clustering;
          Alcotest.test_case "split cluster" `Quick test_metrics_split_cluster;
          Alcotest.test_case "merged cluster" `Quick test_metrics_merged_cluster;
          Alcotest.test_case "foreign element" `Quick test_metrics_foreign_element_blocks_recovery;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_uf_union_monotone; prop_signature_distance_symmetric ] );
    ]
