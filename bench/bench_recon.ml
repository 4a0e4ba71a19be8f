(* The reconstruction bench: times the alignment kernels (the full-matrix
   oracle vs the default bit-vector kernel) and the whole consensus path
   built on them, and writes BENCH_recon.json so future perf changes have
   a trajectory to regress against.

     dune exec bench/bench_recon.exe                 # full run, writes
                                                     # BENCH_recon.json in CWD
     dune exec bench/bench_recon.exe -- --out-dir d  # write elsewhere
     dune exec bench/bench_recon.exe -- --smoke      # tiny budget: checks the
                                                     # harness and JSON, not timing

   Three tiers, each with an exactness guard (the default kernel is only
   a perf knob — any output difference is a bug and fails the bench):

   - align: ns/op for sibling pairs at 120nt and 300nt, per backend,
     after checking both backends agree on every pair of lengths across
     the 63-bit block boundaries;
   - reconstruct: ns per whole-cluster NW consensus at coverage 5/10/20,
     with byte-identical consensus required between backends;
   - pipeline: end-to-end [Pipeline.run] stage timings per backend, with
     identical decoded bytes required; the config records the default
     run's minor words per cluster and peak RSS, and the machine's core
     count.

   The job also fails if the default kernel is slower than full on the
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

type entry = { name : string; ns_per_op : float option; s_total : float option; speedup : float }

let entry ?ns ?s ~speedup name = { name; ns_per_op = ns; s_total = s; speedup }

let json_entry e =
  let fields =
    [ Printf.sprintf "\"name\": %S" e.name ]
    @ (match e.ns_per_op with
      | Some ns -> [ Printf.sprintf "\"ns_per_op\": %.1f" ns ]
      | None -> [])
    @ (match e.s_total with
      | Some s -> [ Printf.sprintf "\"s_total\": %.4f" s ]
      | None -> [])
    @ [ Printf.sprintf "\"speedup_vs_full\": %.2f" e.speedup ]
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
    Printf.eprintf "backend disagreement on %s (full score %d, default score %d)\n" name
      f.Dna.Alignment.score d.Dna.Alignment.score;
    exit 1
  end

let align_full a b = Dna.Alignment.align ~backend:Dna.Alignment.Full a b
let align_default a b = Dna.Alignment.align ~backend:Dna.Alignment.Auto a b

(* Both backends on every pair of lengths on either side of the default
   kernel's 63-row block edges, sibling and unrelated reads alike. *)
let check_block_boundaries rng =
  let lengths = [ 0; 1; 62; 63; 64; 125; 126; 127; 189; 190 ] in
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
          entry ~ns:ns_full ~speedup:1.0 (name ^ "/full");
          entry ~ns:ns_default ~speedup (name ^ "/default");
        ])
      results
  in
  let speedup_120 = match results with (_, _, _, s) :: _ -> s | [] -> 0.0 in
  (entries, speedup_120)

(* Tier 2: whole-cluster NW consensus per backend, coverage 5/10/20.
   Every cluster's consensus must be byte-identical across backends. *)
let run_reconstruct () =
  let n_clusters = if !smoke then 3 else 24 in
  let rng = Dna.Rng.create 42 in
  List.concat_map
    (fun coverage ->
      let clusters =
        Array.init n_clusters (fun _ ->
            let clean = Dna.Strand.random rng read_len in
            Array.init coverage (fun _ -> sibling rng clean))
      in
      Array.iter
        (fun reads ->
          let full =
            Reconstruction.Nw_consensus.reconstruct ~backend:Dna.Alignment.Full
              ~target_len:read_len reads
          in
          let default =
            Reconstruction.Nw_consensus.reconstruct ~backend:Dna.Alignment.Auto
              ~target_len:read_len reads
          in
          if not (Dna.Strand.equal full default) then begin
            Printf.eprintf "consensus mismatch at coverage %d:\n  full    %s\n  default %s\n"
              coverage (Dna.Strand.to_string full) (Dna.Strand.to_string default);
            exit 1
          end)
        clusters;
      let sweep backend () =
        Array.iter
          (fun reads ->
            ignore (Reconstruction.Nw_consensus.reconstruct ~backend ~target_len:read_len reads))
          clusters
      in
      let per_cluster ns = ns /. float_of_int n_clusters in
      let ns_full = per_cluster (ns_per_op (sweep Dna.Alignment.Full)) in
      let ns_default = per_cluster (ns_per_op (sweep Dna.Alignment.Auto)) in
      let speedup = ns_full /. ns_default in
      let name = Printf.sprintf "reconstruct/len-%d-cov-%d" read_len coverage in
      Printf.printf "%-28s full %10.1f ns   default %10.1f ns   %5.1fx\n" name ns_full
        ns_default speedup;
      [
        entry ~ns:ns_full ~speedup:1.0 (name ^ "/full");
        entry ~ns:ns_default ~speedup (name ^ "/default");
      ])
    [ 5; 10; 20 ]

(* Tier 3: the whole pipeline, differing only in the reconstruction
   backend. Same seed on both runs, so the decoded bytes must match.
   The default leg runs first so the VmHWM reading reflects it alone: the counter is a process-lifetime high-water mark, and
   this tier runs before the others. *)
let run_pipeline () =
  let file_bytes = if !smoke then 128 else 2048 in
  let data =
    let r = Dna.Rng.create 11 in
    Bytes.init file_bytes (fun _ -> Char.chr (Dna.Rng.int r 256))
  in
  let run backend =
    let rng = Dna.Rng.create 5 in
    let stages = Dnastore.Pipeline.default_stages ~error_rate () in
    let pooled = Dnastore.Pipeline.default_pooled_stages ~recon_backend:backend () in
    Dnastore.Pipeline.run ~stages ~pooled ~domains:1 rng data
  in
  let out_default = run Dna.Alignment.Auto in
  let peak_rss = Scale_stream.peak_rss_mb () in
  let out_full = run Dna.Alignment.Full in
  (match (out_full.Dnastore.Pipeline.file, out_default.Dnastore.Pipeline.file) with
  | Some a, Some b when Bytes.equal a b -> ()
  | _ ->
      Printf.eprintf "pipeline decode differs between backends\n";
      exit 1);
  let tf = out_full.Dnastore.Pipeline.timings and tb = out_default.Dnastore.Pipeline.timings in
  Printf.printf
    "pipeline reconstruct: full %.3fs (p50 %.2f ms, p95 %.2f ms)  default %.3fs (p50 %.2f ms, p95 %.2f ms)  %.1fx\n"
    tf.Dnastore.Pipeline.reconstruct_s
    (1000.0 *. tf.Dnastore.Pipeline.reconstruct_p50_s)
    (1000.0 *. tf.Dnastore.Pipeline.reconstruct_p95_s)
    tb.Dnastore.Pipeline.reconstruct_s
    (1000.0 *. tb.Dnastore.Pipeline.reconstruct_p50_s)
    (1000.0 *. tb.Dnastore.Pipeline.reconstruct_p95_s)
    (tf.Dnastore.Pipeline.reconstruct_s /. tb.Dnastore.Pipeline.reconstruct_s);
  let stage name full default =
    [
      entry ~s:full ~speedup:1.0 (name ^ "/full");
      entry ~s:default
        ~speedup:(if default > 0.0 then full /. default else 1.0)
        (name ^ "/default");
    ]
  in
  ( stage "pipeline/reconstruct_s" tf.Dnastore.Pipeline.reconstruct_s
      tb.Dnastore.Pipeline.reconstruct_s
    @ stage "pipeline/reconstruct_p50_s" tf.Dnastore.Pipeline.reconstruct_p50_s
      tb.Dnastore.Pipeline.reconstruct_p50_s
  @ stage "pipeline/reconstruct_p95_s" tf.Dnastore.Pipeline.reconstruct_p95_s
      tb.Dnastore.Pipeline.reconstruct_p95_s
  @ stage "pipeline/total_s"
      (Dnastore.Pipeline.total_s tf)
      (Dnastore.Pipeline.total_s tb),
    [
      ( "words_per_cluster",
        Printf.sprintf "%.1f" out_default.Dnastore.Pipeline.reconstruct_words_per_cluster );
      ("peak_rss_mb", Printf.sprintf "%.1f" peak_rss);
      ("cores", string_of_int (Domain.recommended_domain_count ()));
    ] )

let () =
  Dna.Alignment.reset_banded_fallbacks ();
  let pipeline_entries, pipeline_extras = run_pipeline () in
  let align_entries, speedup_120 = run_align () in
  let recon_entries = run_reconstruct () in
  write_json
    (Filename.concat !out_dir "BENCH_recon.json")
    ~config:
      ([
         ("read_len", string_of_int read_len);
         ("error_rate", string_of_float error_rate);
         ("banded_fallbacks", string_of_int (Dna.Alignment.banded_fallbacks ()));
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
