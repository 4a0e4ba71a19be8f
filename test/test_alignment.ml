(* The bit-vector alignment kernel must return, on every input, the
   full-matrix oracle's score (the edit distance) and script, bit for
   bit. These tests sweep random pairs — siblings at several error rates
   plus unrelated strands — across lengths 0..300 and every 63-bit
   block boundary of the kernel, and whole consensus runs. *)

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

let same name (f : Dna.Alignment.t) (g : Dna.Alignment.t) =
  Alcotest.(check int) (name ^ " score") f.Dna.Alignment.score g.Dna.Alignment.score;
  Alcotest.(check bool) (name ^ " script identical") true
    (g.Dna.Alignment.script = f.Dna.Alignment.script)

let check_exact (a, b) =
  let f = Oracle.align a b in
  Alcotest.(check int) "oracle score is the edit distance" (Dna.Distance.levenshtein a b)
    f.Dna.Alignment.score;
  (* the script must replay to the second strand *)
  Alcotest.(check bool) "oracle script replays" true
    (Dna.Strand.equal b (Dna.Alignment.apply_script f.Dna.Alignment.script));
  same "default" f (Dna.Alignment.align a b)

let test_matches_oracle () =
  List.iter
    (fun seed ->
      let rng = Dna.Rng.create seed in
      for _ = 1 to 150 do
        check_exact (random_pair rng)
      done)
    seeds

(* The bit-vector kernel splits the reference into 63-row blocks: every
   pair of lengths on both sides of one, two and three block edges
   (plus the empty and one-base strands), with the read sharing the
   reference's bases, reversed, or unrelated. *)
let test_block_boundaries () =
  let rng = Dna.Rng.create 63 in
  List.iter
    (fun la ->
      List.iter
        (fun lb ->
          let a = Dna.Strand.random rng la in
          (* [a] itself when the lengths agree, else its prefix or [a]
             extended by random bases *)
          let shared =
            if lb <= la then Dna.Strand.sub a ~pos:0 ~len:lb
            else Dna.Strand.append a (Dna.Strand.random rng (lb - la))
          in
          List.iter check_exact
            [ (a, shared); (a, Dna.Strand.rev shared); (a, Dna.Strand.random rng lb) ])
        Oracle.block_boundary_lengths)
    Oracle.block_boundary_lengths

(* The packed script is the same alignment as the decoded one. *)
let test_packed_roundtrip () =
  let rng = Dna.Rng.create 3 in
  for _ = 1 to 50 do
    let a, b = random_pair rng in
    let p = Dna.Alignment.align_packed a b in
    let t = Oracle.align a b in
    Alcotest.(check int) "packed score" t.Dna.Alignment.score p.Dna.Alignment.packed_score;
    Alcotest.(check bool) "packed script decodes identically" true
      (Dna.Alignment.script_of_packed p = t.Dna.Alignment.script)
  done

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
        Reconstruction.Nw_consensus.reconstruct ~target_len reads),
      fun ~target_len pool idxs ->
        Reconstruction.Nw_consensus.reconstruct_pool ~target_len pool idxs );
    ( "bma",
      (fun ~target_len reads -> Reconstruction.Bma.reconstruct ~target_len reads),
      fun ~target_len pool idxs -> Reconstruction.Bma.reconstruct_pool ~target_len pool idxs );
    ( "dbma",
      (fun ~target_len reads -> Reconstruction.Bma.reconstruct_double ~target_len reads),
      fun ~target_len pool idxs ->
        Reconstruction.Bma.reconstruct_double_pool ~target_len pool idxs );
    ( "ensemble",
      (fun ~target_len reads ->
        Reconstruction.Ensemble.reconstruct ~target_len reads),
      fun ~target_len pool idxs -> Reconstruction.Ensemble.reconstruct_pool ~target_len pool idxs );
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
      (fun (reads, target_len) -> Reconstruction.Ensemble.reconstruct ~target_len reads)
      clusters
  in
  List.iter
    (fun domains ->
      let pooled =
        Dna.Par.map_array ~label:"test.pool_isolation" ~domains
          (fun i ->
            let _, target_len = clusters.(i) in
            let pool, idxs = pools.(i) in
            Reconstruction.Ensemble.reconstruct_pool ~target_len pool idxs)
          (Array.init (Array.length clusters) Fun.id)
      in
      Array.iteri
        (fun i s ->
          Alcotest.(check bool)
            (Printf.sprintf "domains %d cluster %d identical" domains i)
            true (Dna.Strand.equal serial.(i) s))
        pooled)
    [ 1; 2; 4 ]

(* ---- the bit-vector kernel's arena and domain safety ---- *)

(* Sibling pairs shaped like the pipeline's: encoded-strand length, 6%
   errors. *)
let strand_len = Codec.Params.strand_nt Codec.Params.default

(* The kernel's delta planes live in the domain's arena: a workload of
   similar lengths grows them on the first pass and then reuses them,
   and no (la+1)*(lb+1) matrix is ever held. Runs in a fresh domain so
   the arena starts empty. *)
let test_arena_capacity_flat () =
  let rng = Dna.Rng.create 8 in
  let pairs =
    Array.init 400 (fun _ ->
        let a = Dna.Strand.random rng strand_len in
        (a, sibling rng ~error_rate:0.06 a))
  in
  let first, later =
    Domain.join
      (Domain.spawn (fun () ->
           let pass () =
             Array.iter (fun (a, b) -> ignore (Dna.Alignment.align_packed a b)) pairs;
             Dna.Alignment.scratch_capacity_words ()
           in
           let first = pass () in
           (first, List.init 5 (fun _ -> pass ()))))
  in
  List.iteri
    (fun k c -> Alcotest.(check int) (Printf.sprintf "capacity flat after pass %d" (k + 2)) first c)
    later;
  (* grow-only doubling: each plane and the op buffer stay within twice
     the largest pair's need, far below a (la+1)*(lb+1) matrix *)
  let lb_max = Array.fold_left (fun m (_, b) -> max m (Dna.Strand.length b)) 0 pairs in
  let nw = (strand_len + Dna.Strand.mask_bits - 1) / Dna.Strand.mask_bits in
  let bound = 2 * ((4 * nw * (lb_max + 1)) + strand_len + lb_max) in
  Alcotest.(check bool)
    (Printf.sprintf "capacity %d within planes + ops bound %d" first bound)
    true (first <= bound)

(* Two domains align the same pairs at the same time (each strand's
   match masks are shared between them): every script equals the
   oracle's. *)
let test_concurrent_domains_identical () =
  let rng = Dna.Rng.create 31 in
  let pairs = Array.init 60 (fun _ -> random_pair rng) in
  let n = Array.length pairs in
  let oracle = Array.map (fun (a, b) -> Oracle.align a b) pairs in
  let got =
    Dna.Par.map_array ~label:"test.align_domains" ~domains:2
      (fun k ->
        let a, b = pairs.(k mod n) in
        Dna.Alignment.align a b)
      (Array.init (2 * n) Fun.id)
  in
  Array.iteri
    (fun k (g : Dna.Alignment.t) ->
      let f = oracle.(k mod n) in
      Alcotest.(check int) (Printf.sprintf "task %d score" k) f.Dna.Alignment.score g.score;
      Alcotest.(check bool) (Printf.sprintf "task %d script" k) true (f.script = g.script))
    got

(* Pipeline-shaped clusters (6% errors) at coverage 5, 10 and 20: every
   read aligned against the cluster's longest read (the consensus's
   first reference) and against the cluster's NW consensus gives the
   oracle's script — the alignments the consensus rounds are built
   from. *)
let test_nw_consensus_scripts_match_oracle () =
  let rng = Dna.Rng.create 17 in
  List.iter
    (fun coverage ->
      for c = 1 to 24 do
        let clean = Dna.Strand.random rng strand_len in
        let reads = Array.init coverage (fun _ -> sibling rng ~error_rate:0.06 clean) in
        let longest =
          Array.fold_left
            (fun l r -> if Dna.Strand.length r > Dna.Strand.length l then r else l)
            reads.(0) reads
        in
        let consensus = Reconstruction.Nw_consensus.reconstruct ~target_len:strand_len reads in
        Array.iteri
          (fun k read ->
            List.iter
              (fun (what, reference) ->
                same
                  (Printf.sprintf "cov %d cluster %d read %d vs %s" coverage c k what)
                  (Oracle.align reference read)
                  (Dna.Alignment.align reference read))
              [ ("longest", longest); ("consensus", consensus) ])
          reads
      done)
    [ 5; 10; 20 ]

(* Pipeline-shaped clusters (coverage 10, 6% errors): pool-native NW
   consensus is identical at domains 1 and 2, each worker aligning in
   its own arena. *)
let test_nw_pool_identical_across_domains () =
  let rng = Dna.Rng.create 7 in
  let clusters =
    Array.init 24 (fun _ ->
        let clean = Dna.Strand.random rng strand_len in
        Array.init 10 (fun _ -> sibling rng ~error_rate:0.06 clean))
  in
  let pools = Array.map (pool_of_reads rng) clusters in
  let at domains =
    Dna.Par.map_array ~label:"test.nw_default" ~domains
      (fun (pool, idxs) ->
        Reconstruction.Nw_consensus.reconstruct_pool ~target_len:strand_len pool idxs)
      pools
  in
  let serial = at 1 in
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "cluster %d: domains 2 = domains 1" i)
        true (Dna.Strand.equal serial.(i) c))
    (at 2)

let () =
  Alcotest.run "alignment"
    [
      ( "exactness",
        [
          Alcotest.test_case "banded == full == levenshtein" `Quick test_matches_oracle;
          Alcotest.test_case "block boundaries == full" `Quick test_block_boundaries;
          Alcotest.test_case "packed roundtrip" `Quick test_packed_roundtrip;
        ] );
      ( "consensus",
        [
          Alcotest.test_case "nw consensus scripts == oracle" `Quick
            test_nw_consensus_scripts_match_oracle;
          Alcotest.test_case "cluster sort deterministic" `Quick test_cluster_sort_deterministic;
        ] );
      ( "pool",
        [
          Alcotest.test_case "pool == boxed (all algorithms)" `Quick test_pool_matches_boxed;
          Alcotest.test_case "empty cluster refuses identically" `Quick test_pool_empty_cluster;
          Alcotest.test_case "arena isolation across domains" `Quick
            test_pool_arena_isolation_across_domains;
        ] );
      ( "bit-vector",
        [
          Alcotest.test_case "arena capacity flat" `Quick test_arena_capacity_flat;
          Alcotest.test_case "concurrent domains identical scripts" `Quick
            test_concurrent_domains_identical;
          Alcotest.test_case "nw pool identical across domains" `Quick
            test_nw_pool_identical_across_domains;
        ] );
    ]
