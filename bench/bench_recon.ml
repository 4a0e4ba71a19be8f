(* The reconstruction bench: times the alignment kernel (the bit-vector
   kernel vs the test tree's full-matrix oracle) and the whole consensus
   path built on it, and writes BENCH_recon.json so future perf changes
   have a trajectory to regress against.

     dune exec bench/bench_recon.exe                 # full run, writes
                                                     # BENCH_recon.json in CWD
     dune exec bench/bench_recon.exe -- --out-dir d  # write elsewhere
     dune exec bench/bench_recon.exe -- --smoke      # tiny budget: checks the
                                                     # harness and JSON, not timing

   Three tiers:

   - align: ns/op for sibling pairs at 120nt and 300nt, the oracle
     ("full") beside the library kernel ("default"), after checking the
     two return the same score and script on every pair of lengths
     across the 63-bit block boundaries — any difference is a bug and
     fails the bench;
   - reconstruct: ns per whole-cluster NW consensus at coverage 5/10/20;
   - pipeline: end-to-end [Pipeline.run] reconstruction and total
     timings; the config records the run's minor words per cluster and
     peak RSS, and the machine's core count.

   The job also fails if the kernel is slower than the oracle on the
   120nt align case (threshold 1.0, relaxed to 0.8 under --smoke where
   timings are noise). *)

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
        Printf.eprintf "usage: bench_recon [--smoke] [--out-dir DIR] (got %S)\n" arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv))

(* ---------- Timing ---------- *)

let ns_per_op f =
  let min_time = if !smoke then 0.002 else 0.25 in
  ignore (f ());
  let rec calibrate n =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      ignore (f ())
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt >= min_time || n >= 1_000_000_000 then dt *. 1e9 /. float_of_int n else calibrate (n * 4)
  in
  calibrate 1

(* ---------- JSON ---------- *)

type entry = {
  name : string;
  ns_per_op : float option;
  s_total : float option;
  speedup : float option;
}

let entry ?ns ?s ?speedup name = { name; ns_per_op = ns; s_total = s; speedup }

let json_entry e =
  let fields =
    [ Printf.sprintf "\"name\": %S" e.name ]
    @ (match e.ns_per_op with
      | Some ns -> [ Printf.sprintf "\"ns_per_op\": %.1f" ns ]
      | None -> [])
    @ (match e.s_total with
      | Some s -> [ Printf.sprintf "\"s_total\": %.4f" s ]
      | None -> [])
    @ (match e.speedup with
      | Some x -> [ Printf.sprintf "\"speedup_vs_full\": %.2f" x ]
      | None -> [])
  in
  "    {" ^ String.concat ", " fields ^ "}"

let write_json path ~config entries =
  if not (Sys.file_exists !out_dir) then Sys.mkdir !out_dir 0o755;
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\n";
      output_string oc
        ("  \"config\": {"
        ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) config)
        ^ "},\n");
      output_string oc "  \"entries\": [\n";
      output_string oc (String.concat ",\n" (List.map json_entry entries));
      output_string oc "\n  ]\n}\n");
  Printf.printf "wrote %s\n" path

(* ---------- Workloads ---------- *)

let read_len = 120
let error_rate = 0.06

let sibling rng s =
  let ch = Simulator.Iid_channel.create_rate ~error_rate in
  Simulator.Channel.transmit ch rng s

let check_same_alignment name (f : Dna.Alignment.t) (d : Dna.Alignment.t) =
  if f.Dna.Alignment.score <> d.Dna.Alignment.score || f.script <> d.script then begin
    Printf.eprintf "kernel disagreement on %s (full score %d, default score %d)\n" name
      f.Dna.Alignment.score d.Dna.Alignment.score;
    exit 1
  end

let align_full = Oracle.align
let align_default = Dna.Alignment.align

(* Oracle and kernel on every pair of lengths on either side of the
   kernel's 63-row block edges, sibling and unrelated reads alike. *)
let check_block_boundaries rng =
  let lengths = Oracle.block_boundary_lengths in
  List.iter
    (fun la ->
      List.iter
        (fun lb ->
          let a = Dna.Strand.random rng la in
          let pairs = [ ("random", Dna.Strand.random rng lb); ("sibling", sibling rng a) ] in
          List.iter
            (fun (kind, b) ->
              check_same_alignment
                (Printf.sprintf "boundary %d/%d %s" la lb kind)
                (align_full a b) (align_default a b))
            pairs)
        lengths)
    lengths

(* Tier 1: the pairwise kernel on sibling reads. Returns the 120nt
   speedup for the regression guard. *)
let run_align () =
  let rng = Dna.Rng.create 123 in
  check_block_boundaries rng;
  let cases =
    List.map
      (fun len ->
        let a = Dna.Strand.random rng len in
        let b = sibling rng a in
        (Printf.sprintf "align/siblings-%dnt" len, a, b))
      [ read_len; 300 ]
  in
  let results =
    List.map
      (fun (name, a, b) ->
        check_same_alignment name (align_full a b) (align_default a b);
        let ns_full = ns_per_op (fun () -> align_full a b) in
        let ns_default = ns_per_op (fun () -> align_default a b) in
        let speedup = ns_full /. ns_default in
        Printf.printf "%-28s full %10.1f ns   default %10.1f ns   %5.1fx\n" name ns_full
          ns_default speedup;
        (name, ns_full, ns_default, speedup))
      cases
  in
  let entries =
    List.concat_map
      (fun (name, ns_full, ns_default, speedup) ->
        [
          entry ~ns:ns_full (name ^ "/full");
          entry ~ns:ns_default ~speedup (name ^ "/default");
        ])
      results
  in
  let speedup_120 = match results with (_, _, _, s) :: _ -> s | [] -> 0.0 in
  (entries, speedup_120)

(* Tier 2: whole-cluster NW consensus, coverage 5/10/20. *)
let run_reconstruct () =
  let n_clusters = if !smoke then 3 else 24 in
  let rng = Dna.Rng.create 42 in
  List.map
    (fun coverage ->
      let clusters =
        Array.init n_clusters (fun _ ->
            let clean = Dna.Strand.random rng read_len in
            Array.init coverage (fun _ -> sibling rng clean))
      in
      let sweep () =
        Array.iter
          (fun reads -> ignore (Reconstruction.Nw_consensus.reconstruct ~target_len:read_len reads))
          clusters
      in
      let ns = ns_per_op sweep /. float_of_int n_clusters in
      let name = Printf.sprintf "reconstruct/len-%d-cov-%d/default" read_len coverage in
      Printf.printf "%-36s %10.1f ns\n" name ns;
      entry ~ns name)
    [ 5; 10; 20 ]

(* Tier 3: the whole pipeline on its default stages. It runs before the
   other tiers, so the VmHWM reading (a process-lifetime high-water
   mark) reflects the pipeline alone. *)
let run_pipeline () =
  let file_bytes = if !smoke then 128 else 2048 in
  let data =
    let r = Dna.Rng.create 11 in
    Bytes.init file_bytes (fun _ -> Char.chr (Dna.Rng.int r 256))
  in
  let rng = Dna.Rng.create 5 in
  let stages = Dnastore.Pipeline.default_stages ~error_rate () in
  let pooled = Dnastore.Pipeline.default_pooled_stages () in
  let out = Dnastore.Pipeline.run ~stages ~pooled ~domains:1 rng data in
  let peak_rss = Scale_stream.peak_rss_mb () in
  let t = out.Dnastore.Pipeline.timings in
  Printf.printf "pipeline reconstruct: %.3fs (p50 %.2f ms, p95 %.2f ms)\n"
    t.Dnastore.Pipeline.reconstruct_s
    (1000.0 *. t.Dnastore.Pipeline.reconstruct_p50_s)
    (1000.0 *. t.Dnastore.Pipeline.reconstruct_p95_s);
  ( [
      entry ~s:t.Dnastore.Pipeline.reconstruct_s "pipeline/reconstruct_s/default";
      entry ~s:t.Dnastore.Pipeline.reconstruct_p50_s "pipeline/reconstruct_p50_s/default";
      entry ~s:t.Dnastore.Pipeline.reconstruct_p95_s "pipeline/reconstruct_p95_s/default";
      entry ~s:(Dnastore.Pipeline.total_s t) "pipeline/total_s/default";
    ],
    [
      ( "words_per_cluster",
        Printf.sprintf "%.1f" out.Dnastore.Pipeline.reconstruct_words_per_cluster );
      ("peak_rss_mb", Printf.sprintf "%.1f" peak_rss);
      ("cores", string_of_int (Domain.recommended_domain_count ()));
    ] )

let () =
  let pipeline_entries, pipeline_extras = run_pipeline () in
  let align_entries, speedup_120 = run_align () in
  let recon_entries = run_reconstruct () in
  write_json
    (Filename.concat !out_dir "BENCH_recon.json")
    ~config:
      ([
         ("read_len", string_of_int read_len);
         ("error_rate", string_of_float error_rate);
         ("smoke", string_of_bool !smoke);
       ]
      @ pipeline_extras)
    (align_entries @ recon_entries @ pipeline_entries);
  let threshold = if !smoke then 0.8 else 1.0 in
  if speedup_120 < threshold then begin
    Printf.eprintf "default kernel slower than full on %dnt align (%.2fx < %.2fx)\n" read_len
      speedup_120
      threshold;
    exit 1
  end
