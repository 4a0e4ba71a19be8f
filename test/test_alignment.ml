(* The banded alignment kernel is a perf knob, never a semantics knob:
   on every input, every backend and every band must return the same
   score (equal to the edit distance) and the same script, bit for bit.
   These tests sweep random pairs — siblings at several error rates plus
   unrelated strands — across lengths 0..300 and bands from degenerate
   (1) through the score-first default to read-length, including the
   explicit-band fallback path. *)

let seeds = [ 1; 7; 42 ]

let sibling rng ~error_rate s =
  let ch = Simulator.Iid_channel.create_rate ~error_rate in
  Simulator.Channel.transmit ch rng s

(* One strand pair per case: mostly siblings, some unrelated. *)
let random_pair rng =
  let la = Dna.Rng.int rng 301 in
  let a = Dna.Strand.random rng la in
  let b =
    if Dna.Rng.int rng 4 = 0 then Dna.Strand.random rng (Dna.Rng.int rng 301)
    else
      let rates = [| 0.02; 0.06; 0.15; 0.4 |] in
      sibling rng ~error_rate:rates.(Dna.Rng.int rng 4) a
  in
  (a, b)

let check_exact (a, b) =
  let f = Dna.Alignment.align ~backend:Dna.Alignment.Full a b in
  let d = Dna.Distance.levenshtein a b in
  Alcotest.(check int) "full score is the edit distance" d f.Dna.Alignment.score;
  (* the script must replay to the second strand *)
  Alcotest.(check bool) "full script replays" true
    (Dna.Strand.equal b (Dna.Alignment.apply_script f.Dna.Alignment.script));
  let same name (g : Dna.Alignment.t) =
    Alcotest.(check int) (name ^ " score") f.Dna.Alignment.score g.Dna.Alignment.score;
    Alcotest.(check bool) (name ^ " script identical") true
      (g.Dna.Alignment.script = f.Dna.Alignment.script)
  in
  same "banded(auto)" (Dna.Alignment.align ~backend:Dna.Alignment.Banded a b);
  same "auto" (Dna.Alignment.align ~backend:Dna.Alignment.Auto a b);
  List.iter
    (fun w ->
      same
        (Printf.sprintf "banded(band=%d)" w)
        (Dna.Alignment.align ~backend:Dna.Alignment.Banded ~band:w a b))
    [ 1; 8; 16; max 1 (Dna.Strand.length b) ]

let test_banded_matches_oracle () =
  List.iter
    (fun seed ->
      let rng = Dna.Rng.create seed in
      for _ = 1 to 150 do
        check_exact (random_pair rng)
      done)
    seeds

(* Tiny explicit bands force the fallback: the result is still exact and
   the process-wide counter records that the band was too narrow. *)
let test_explicit_band_fallback_counted () =
  Dna.Alignment.reset_banded_fallbacks ();
  let rng = Dna.Rng.create 99 in
  let a = Dna.Strand.random rng 120 in
  let b = sibling rng ~error_rate:0.15 a in
  let f = Dna.Alignment.align ~backend:Dna.Alignment.Full a b in
  Alcotest.(check bool) "pair is distant enough to overflow band 1" true
    (f.Dna.Alignment.score > 1);
  let g = Dna.Alignment.align ~backend:Dna.Alignment.Banded ~band:1 a b in
  Alcotest.(check int) "fallback result exact" f.Dna.Alignment.score g.Dna.Alignment.score;
  Alcotest.(check bool) "fallback counted" true (Dna.Alignment.banded_fallbacks () > 0);
  (* the score-first default band never falls back *)
  Dna.Alignment.reset_banded_fallbacks ();
  ignore (Dna.Alignment.align ~backend:Dna.Alignment.Banded a b);
  Alcotest.(check int) "score-first path never retries" 0 (Dna.Alignment.banded_fallbacks ())

(* The packed script is the same alignment as the decoded one. *)
let test_packed_roundtrip () =
  let rng = Dna.Rng.create 3 in
  for _ = 1 to 50 do
    let a, b = random_pair rng in
    let p = Dna.Alignment.align_packed a b in
    let t = Dna.Alignment.align ~backend:Dna.Alignment.Full a b in
    Alcotest.(check int) "packed score" t.Dna.Alignment.score p.Dna.Alignment.packed_score;
    Alcotest.(check bool) "packed script decodes identically" true
      (Dna.Alignment.script_of_packed p = t.Dna.Alignment.script)
  done

(* POA graphs must be identical however narrow the (exact, fallback-
   guarded) band is. *)
let test_poa_band_invariant () =
  List.iter
    (fun seed ->
      let rng = Dna.Rng.create seed in
      List.iter
        (fun coverage ->
          let clean = Dna.Strand.random rng 120 in
          let reads =
            List.init coverage (fun _ -> sibling rng ~error_rate:0.06 clean)
          in
          let consensus_at band = Dna.Poa.consensus (Dna.Poa.of_reads ?band reads) in
          let unpruned = consensus_at (Some 10_000) in
          List.iter
            (fun band ->
              Alcotest.(check bool)
                (Printf.sprintf "cov %d band %d consensus unchanged" coverage band)
                true
                (Dna.Strand.equal unpruned (consensus_at (Some band))))
            [ 1; 8; Dna.Alignment.default_band ];
          Alcotest.(check bool)
            (Printf.sprintf "cov %d default band consensus unchanged" coverage)
            true
            (Dna.Strand.equal unpruned (consensus_at None)))
        [ 3; 10; 20 ])
    seeds

(* NW consensus is backend-invariant on whole clusters. *)
let test_consensus_backend_invariant () =
  let rng = Dna.Rng.create 17 in
  List.iter
    (fun coverage ->
      for _ = 1 to 6 do
        let clean = Dna.Strand.random rng 120 in
        let reads = Array.init coverage (fun _ -> sibling rng ~error_rate:0.06 clean) in
        let full =
          Reconstruction.Nw_consensus.reconstruct ~backend:Dna.Alignment.Full ~target_len:120
            reads
        in
        let banded =
          Reconstruction.Nw_consensus.reconstruct ~backend:Dna.Alignment.Banded ~target_len:120
            reads
        in
        Alcotest.(check bool)
          (Printf.sprintf "cov %d consensus byte-identical" coverage)
          true (Dna.Strand.equal full banded)
      done)
    [ 5; 10; 20 ]

(* The cluster order fed to reconstruction is a pure function of the
   cluster set: however the clustering stage happened to emit the
   clusters (e.g. across [--domains] settings), sorting yields the same
   sequence — including among same-size clusters, which tie-break on
   their reads (length, then lexicographic). *)
let test_cluster_sort_deterministic () =
  let rng = Dna.Rng.create 23 in
  let clusters =
    Array.init 12 (fun _ ->
        let clean = Dna.Strand.random rng 60 in
        (* fixed size 4: every cluster exercises the tie-break *)
        Array.init 4 (fun _ -> sibling rng ~error_rate:0.1 clean))
  in
  let shuffle arr =
    for i = Array.length arr - 1 downto 1 do
      let j = Dna.Rng.int rng (i + 1) in
      let t = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- t
    done
  in
  (* The same clusters as index slices into one arena. *)
  let pool = Dna.Strand_pool.create () in
  let slices =
    Array.map (Array.map (fun read -> Dna.Strand_pool.add_strand pool read)) clusters
  in
  let reference = Array.copy clusters in
  Oracle.sort_clusters reference;
  let materialize = Array.map (Array.map (Dna.Strand_pool.get pool)) in
  let sorted = Array.copy slices in
  Dnastore.Pipeline.sort_cluster_slices pool sorted;
  Alcotest.(check bool) "slice order = boxed oracle order" true
    (Array.for_all2 (Array.for_all2 Dna.Strand.equal) (materialize sorted) reference);
  for _ = 1 to 5 do
    let shuffled = Array.copy slices in
    shuffle shuffled;
    Dnastore.Pipeline.sort_cluster_slices pool shuffled;
    Alcotest.(check bool) "sorted cluster order identical" true (shuffled = sorted)
  done

(* ---- pool-native reconstruction: bit-identity with the boxed path ----

   The arena surfaces ([reconstruct_pool] and friends) are a perf knob,
   never a semantics knob: on every cluster, the pool path over an
   index slice must return byte-for-byte what the boxed path returns
   over the materialized reads — including which exceptions it raises
   (an empty slice must refuse exactly like an empty array). *)

(* A random cluster at coverage 3..20 over a clean strand of length
   0..300, packed into a pool alongside decoy reads so slices exercise
   non-contiguous, non-zero-based indexing. *)
let random_cluster rng =
  let coverage = 3 + Dna.Rng.int rng 18 in
  let len = Dna.Rng.int rng 301 in
  let clean = Dna.Strand.random rng len in
  let rates = [| 0.02; 0.06; 0.15 |] in
  let reads =
    Array.init coverage (fun _ -> sibling rng ~error_rate:rates.(Dna.Rng.int rng 3) clean)
  in
  let target_len = max 1 len in
  (reads, target_len)

(* Pack [reads] into a fresh pool interleaved with decoys; returns the
   pool and the slice addressing just the cluster. *)
let pool_of_reads rng reads =
  let pool = Dna.Strand_pool.create () in
  let idxs =
    Array.map
      (fun r ->
        if Dna.Rng.int rng 3 = 0 then
          ignore (Dna.Strand_pool.add_strand pool (Dna.Strand.random rng (Dna.Rng.int rng 50)));
        Dna.Strand_pool.add_strand pool r)
      reads
  in
  (pool, idxs)

let outcome f = match f () with s -> Ok s | exception e -> Error (Printexc.to_string e)

let check_strand_outcome name boxed pooled =
  match (boxed, pooled) with
  | Ok a, Ok b ->
      Alcotest.(check bool) (name ^ " byte-identical") true (Dna.Strand.equal a b)
  | Error a, Error b -> Alcotest.(check string) (name ^ " same failure") a b
  | Ok _, Error e -> Alcotest.failf "%s: boxed succeeded, pooled raised %s" name e
  | Error e, Ok _ -> Alcotest.failf "%s: boxed raised %s, pooled succeeded" name e

let algorithms =
  [
    ( "nw",
      (fun ~target_len reads ->
        Reconstruction.Nw_consensus.reconstruct ~backend:Dna.Alignment.Banded ~target_len reads),
      fun ~target_len pool idxs ->
        Reconstruction.Nw_consensus.reconstruct_pool ~backend:Dna.Alignment.Banded ~target_len
          pool idxs );
    ( "bma",
      (fun ~target_len reads -> Reconstruction.Bma.reconstruct ~target_len reads),
      fun ~target_len pool idxs -> Reconstruction.Bma.reconstruct_pool ~target_len pool idxs );
    ( "dbma",
      (fun ~target_len reads -> Reconstruction.Bma.reconstruct_double ~target_len reads),
      fun ~target_len pool idxs ->
        Reconstruction.Bma.reconstruct_double_pool ~target_len pool idxs );
    ( "ensemble",
      (fun ~target_len reads ->
        Reconstruction.Ensemble.reconstruct ~backend:Dna.Alignment.Banded ~target_len reads),
      fun ~target_len pool idxs ->
        Reconstruction.Ensemble.reconstruct_pool ~backend:Dna.Alignment.Banded ~target_len pool
          idxs );
    ( "majority",
      (fun ~target_len reads -> Reconstruction.Ensemble.majority ~target_len reads),
      fun ~target_len pool idxs -> Reconstruction.Ensemble.majority_pool ~target_len pool idxs );
  ]

let test_pool_matches_boxed () =
  List.iter
    (fun seed ->
      let rng = Dna.Rng.create seed in
      for case = 1 to 25 do
        let reads, target_len = random_cluster rng in
        let pool, idxs = pool_of_reads rng reads in
        List.iter
          (fun (name, boxed, pooled) ->
            check_strand_outcome
              (Printf.sprintf "%s seed %d case %d" name seed case)
              (outcome (fun () -> boxed ~target_len reads))
              (outcome (fun () -> pooled ~target_len pool idxs)))
          algorithms;
        (* the fallback chain, including the empty slice *)
        let fb = Reconstruction.Ensemble.reconstruct_fallback ~target_len reads in
        let fbp = Reconstruction.Ensemble.reconstruct_fallback_pool ~target_len pool idxs in
        (match (fb, fbp) with
        | Some a, Some b ->
            Alcotest.(check bool) "fallback byte-identical" true (Dna.Strand.equal a b)
        | None, None -> ()
        | _ -> Alcotest.fail "fallback chain diverged between spines");
        Alcotest.(check bool) "fallback on empty slice" true
          (Reconstruction.Ensemble.reconstruct_fallback_pool ~target_len pool [||] = None)
      done)
    seeds

(* Empty clusters refuse identically on both spines. *)
let test_pool_empty_cluster () =
  let pool = Dna.Strand_pool.create () in
  List.iter
    (fun (name, boxed, pooled) ->
      check_strand_outcome (name ^ " empty")
        (outcome (fun () -> boxed ~target_len:10 [||]))
        (outcome (fun () -> pooled ~target_len:10 pool [||])))
    algorithms

(* The per-domain arenas must not interfere: reconstructing many
   clusters through the domain pool (domains 1, 2 and 4) returns the
   same strands the boxed serial loop does. Each worker reuses its own
   arena across tasks, so any cross-task or cross-domain state leak
   shows up as a mismatch. *)
let test_pool_arena_isolation_across_domains () =
  let rng = Dna.Rng.create 2024 in
  let clusters = Array.init 24 (fun _ -> random_cluster rng) in
  let pools = Array.map (fun (reads, _) -> pool_of_reads rng reads) clusters in
  let serial =
    Array.map
      (fun (reads, target_len) ->
        Reconstruction.Ensemble.reconstruct ~backend:Dna.Alignment.Banded ~target_len reads)
      clusters
  in
  List.iter
    (fun domains ->
      let pooled =
        Dna.Par.map_array ~label:"test.pool_isolation" ~domains
          (fun i ->
            let _, target_len = clusters.(i) in
            let pool, idxs = pools.(i) in
            Reconstruction.Ensemble.reconstruct_pool ~backend:Dna.Alignment.Banded ~target_len
              pool idxs)
          (Array.init (Array.length clusters) Fun.id)
      in
      Array.iteri
        (fun i s ->
          Alcotest.(check bool)
            (Printf.sprintf "domains %d cluster %d identical" domains i)
            true (Dna.Strand.equal serial.(i) s))
        pooled)
    [ 1; 2; 4 ]

let () =
  Alcotest.run "alignment"
    [
      ( "exactness",
        [
          Alcotest.test_case "banded == full == levenshtein" `Quick test_banded_matches_oracle;
          Alcotest.test_case "explicit band fallback" `Quick test_explicit_band_fallback_counted;
          Alcotest.test_case "packed roundtrip" `Quick test_packed_roundtrip;
        ] );
      ( "consensus",
        [
          Alcotest.test_case "poa band invariant" `Quick test_poa_band_invariant;
          Alcotest.test_case "nw backend invariant" `Quick test_consensus_backend_invariant;
          Alcotest.test_case "cluster sort deterministic" `Quick test_cluster_sort_deterministic;
        ] );
      ( "pool",
        [
          Alcotest.test_case "pool == boxed (all algorithms)" `Quick test_pool_matches_boxed;
          Alcotest.test_case "empty cluster refuses identically" `Quick test_pool_empty_cluster;
          Alcotest.test_case "arena isolation across domains" `Quick
            test_pool_arena_isolation_across_domains;
        ] );
    ]
