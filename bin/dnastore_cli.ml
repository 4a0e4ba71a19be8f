(** Command-line driver for the DNA storage toolkit.

    Each subcommand runs one pipeline module on files, so the stages can
    be exercised and swapped individually, mirroring the paper's modular
    design:

      dnastore encode --input photo.bin --output strands.fasta
      dnastore simulate --strands strands.fasta --output reads.txt
      dnastore cluster --reads reads.txt --output clusters.txt
      dnastore reconstruct --clusters clusters.txt --output consensus.fasta
      dnastore decode --consensus consensus.fasta --meta strands.fasta.meta
      dnastore pipeline --input photo.bin --output recovered.bin *)

open Cmdliner

let read_binary path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  b

let write_binary path bytes =
  let oc = open_out_bin path in
  output_bytes oc bytes;
  close_out oc

let write_text path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  List.rev !lines

(* Sidecar metadata: enough to decode without re-deriving anything. *)
let write_meta path ~(params : Codec.Params.t) ~layout ~n_units =
  write_text path
    (Printf.sprintf "payload_nt=%d\nrs_data=%d\nrs_parity=%d\nscramble_seed=%d\nlayout=%s\nn_units=%d\n"
       params.Codec.Params.payload_nt params.rs_data params.rs_parity params.scramble_seed
       (Codec.Layout.name layout) n_units)

let read_meta path =
  let kv =
    List.filter_map
      (fun line ->
        match String.index_opt line '=' with
        | Some i ->
            Some
              ( String.sub line 0 i,
                String.sub line (i + 1) (String.length line - i - 1) )
        | None -> None)
      (read_lines path)
  in
  let get k = try List.assoc k kv with Not_found -> failwith ("meta: missing key " ^ k) in
  let params =
    {
      Codec.Params.payload_nt = int_of_string (get "payload_nt");
      rs_data = int_of_string (get "rs_data");
      rs_parity = int_of_string (get "rs_parity");
      scramble_seed = int_of_string (get "scramble_seed");
    }
  in
  let layout =
    match get "layout" with
    | "gini" -> Codec.Layout.Gini
    | _ -> Codec.Layout.Baseline
  in
  (params, layout, int_of_string (get "n_units"))

(* Common options *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed for reproducibility.")

let layout_arg =
  let layout_conv =
    Arg.enum [ ("baseline", Codec.Layout.Baseline); ("gini", Codec.Layout.Gini) ]
  in
  Arg.(value & opt layout_conv Codec.Layout.Baseline & info [ "layout" ] ~docv:"LAYOUT"
       ~doc:"Codeword layout: $(b,baseline) (Organick) or $(b,gini) (diagonal).")

let payload_arg =
  Arg.(value & opt int 120 & info [ "payload" ] ~docv:"NT"
       ~doc:"Payload bases per molecule (multiple of 4).")

let parity_arg =
  Arg.(value & opt int 6 & info [ "parity" ] ~docv:"N" ~doc:"Reed-Solomon parity molecules per unit.")

let data_cols_arg =
  Arg.(value & opt int 20 & info [ "data-columns" ] ~docv:"N" ~doc:"Data molecules per encoding unit.")

let params_of ~payload ~data_cols ~parity =
  { Codec.Params.default with Codec.Params.payload_nt = payload; rs_data = data_cols; rs_parity = parity }

let channel_arg =
  Arg.(value & opt (enum [ ("iid", `Iid); ("solqc", `Solqc); ("wetlab", `Wetlab) ]) `Iid
       & info [ "channel" ] ~docv:"CHANNEL"
         ~doc:"Wetlab simulator: $(b,iid) (Rashtchian), $(b,solqc), or $(b,wetlab) (position-dependent, bursty).")

let error_rate_arg =
  Arg.(value & opt float 0.06 & info [ "error-rate" ] ~docv:"P" ~doc:"Total per-base error rate.")

let coverage_arg =
  Arg.(value & opt int 10 & info [ "coverage" ] ~docv:"N" ~doc:"Sequencing reads per strand.")

let make_channel kind error_rate =
  match kind with
  | `Iid -> Simulator.Iid_channel.create_rate ~error_rate
  | `Solqc -> Simulator.Solqc_channel.create_rate ~error_rate
  | `Wetlab ->
      Simulator.Wetlab_channel.create
        ~params:{ Simulator.Wetlab_channel.default_params with base_error = error_rate }
        ()

let recon_arg =
  Arg.(value & opt (enum [ ("bma", `Bma); ("dbma", `Dbma); ("nw", `Nw); ("ensemble", `Ensemble) ]) `Nw
       & info [ "algorithm" ] ~docv:"ALGO"
         ~doc:"Trace reconstruction: $(b,bma), $(b,dbma) (double-sided), $(b,nw)                (Needleman-Wunsch), or $(b,ensemble) (vote of all three).")

let make_recon = function
  | `Bma -> Reconstruction.Bma.reconstruct ?lookahead:None
  | `Dbma -> Reconstruction.Bma.reconstruct_double ?lookahead:None
  | `Nw -> (fun ~target_len reads -> Reconstruction.Nw_consensus.reconstruct ~target_len reads)
  | `Ensemble -> (fun ~target_len reads -> Reconstruction.Ensemble.reconstruct ~target_len reads)
  | `Trellis -> (fun ~target_len reads -> Reconstruction.Trellis.reconstruct ~target_len reads)

(* [make_recon] over arena index slices, for the pipeline: algorithms
   with an arena surface use it; trellis (no pool surface yet) bridges
   by materializing zero-copy views. *)
let make_slice_recon = function
  | `Bma -> (fun ~target_len pool idxs -> Reconstruction.Bma.reconstruct_pool ~target_len pool idxs)
  | `Dbma ->
      (fun ~target_len pool idxs ->
        Reconstruction.Bma.reconstruct_double_pool ~target_len pool idxs)
  | `Nw ->
      (fun ~target_len pool idxs ->
        Reconstruction.Nw_consensus.reconstruct_pool ~target_len pool idxs)
  | `Ensemble ->
      (fun ~target_len pool idxs -> Reconstruction.Ensemble.reconstruct_pool ~target_len pool idxs)
  | `Trellis ->
      (fun ~target_len pool idxs ->
        Reconstruction.Trellis.reconstruct ~target_len
          (Array.map (Dna.Strand_pool.get pool) idxs))

(* The alignment-kernel knob is process-wide (it defaults every
   [Dna.Alignment.align] call), so one flag covers NW consensus, the
   ensemble's NW member, trellis rate estimation and POA alike. *)
let recon_backend_arg =
  Arg.(value
       & opt (enum [ ("auto", Dna.Alignment.Auto); ("full", Dna.Alignment.Full); ("banded", Dna.Alignment.Banded) ])
           Dna.Alignment.Auto
       & info [ "recon-backend" ] ~docv:"KERNEL"
         ~doc:"Alignment kernel for reconstruction: $(b,auto) or $(b,banded) (the bit-vector                kernel: Myers' algorithm with a traceback from its stored delta bits), or                $(b,full) (reference matrix). Output is identical for every choice.")

let sig_kind_arg =
  Arg.(value & opt (enum [ ("qgram", Clustering.Signature.Qgram); ("wgram", Clustering.Signature.Wgram) ])
         Clustering.Signature.Qgram
       & info [ "signature" ] ~docv:"KIND" ~doc:"Clustering signature: $(b,qgram) or $(b,wgram).")

(* encode *)

let encode_cmd =
  let input = Arg.(required & opt (some file) None & info [ "input"; "i" ] ~docv:"FILE" ~doc:"Input file.") in
  let output = Arg.(required & opt (some string) None & info [ "output"; "o" ] ~docv:"FASTA" ~doc:"Output FASTA of encoded strands.") in
  let run input output layout payload data_cols parity =
    let params = params_of ~payload ~data_cols ~parity in
    let data = read_binary input in
    let encoded = Codec.File_codec.encode ~layout ~params data in
    let records =
      Array.to_list
        (Array.mapi
           (fun i s -> { Dna.Fasta.id = Printf.sprintf "strand_%d" i; seq = s })
           encoded.Codec.File_codec.strands)
    in
    Dna.Fasta.write_file output records;
    write_meta (output ^ ".meta") ~params ~layout ~n_units:encoded.Codec.File_codec.n_units;
    Printf.printf "encoded %d bytes -> %d strands (%d units) in %s (+.meta)\n"
      (Bytes.length data) (Array.length encoded.Codec.File_codec.strands)
      encoded.Codec.File_codec.n_units output
  in
  Cmd.v (Cmd.info "encode" ~doc:"Encode a binary file into DNA strands.")
    Term.(const run $ input $ output $ layout_arg $ payload_arg $ data_cols_arg $ parity_arg)

(* simulate *)

let simulate_cmd =
  let strands = Arg.(required & opt (some file) None & info [ "strands"; "s" ] ~docv:"FASTA" ~doc:"Encoded strands.") in
  let output = Arg.(required & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Output reads (.txt: one read per line; .fastq).") in
  let run strands output channel error_rate coverage seed =
    let rng = Dna.Rng.create seed in
    let records, errors = Dna.Fasta.read_file strands in
    if errors <> [] then Printf.eprintf "warning: %d malformed FASTA records skipped\n" (List.length errors);
    let pool = Array.of_list (List.map (fun r -> r.Dna.Fasta.seq) records) in
    let ch = make_channel channel error_rate in
    let sp = Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed coverage) in
    let reads = Simulator.Sequencer.sequence sp ch rng pool in
    let seqs = Array.map (fun r -> r.Simulator.Sequencer.seq) reads in
    if Filename.check_suffix output ".fastq" then
      write_text output (Dnastore.Wetlab_io.export_fastq seqs)
    else
      write_text output
        (String.concat "\n" (Array.to_list (Array.map Dna.Strand.to_string seqs)) ^ "\n");
    Printf.printf "simulated %d reads (%s channel, rate %.3f, coverage %d) -> %s\n"
      (Array.length reads) (Simulator.Channel.name ch) error_rate coverage output
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Simulate wetlab noise over encoded strands.")
    Term.(const run $ strands $ output $ channel_arg $ error_rate_arg $ coverage_arg $ seed_arg)

(* cluster *)

let cluster_cmd =
  let reads = Arg.(required & opt (some file) None & info [ "reads"; "r" ] ~docv:"FILE" ~doc:"Reads, one per line.") in
  let output = Arg.(required & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Clusters: reads grouped by blank lines.") in
  let run reads_path output kind seed domains =
    Dna.Par.set_default_domains domains;
    let rng = Dna.Rng.create seed in
    let reads =
      read_lines reads_path
      |> List.filter_map (fun l -> if String.trim l = "" then None else Dna.Strand.of_string_opt (String.trim l))
      |> Array.of_list
    in
    if Array.length reads = 0 then failwith "no reads";
    let read_len = Dna.Strand.length reads.(0) in
    let params = { (Clustering.Cluster.default_params ~kind ~read_len ()) with domains } in
    let config = Clustering.Auto_config.configure params rng reads in
    let params = Clustering.Auto_config.apply config params in
    let result = Clustering.Cluster.run_scaled params rng reads in
    let buf = Buffer.create 4096 in
    List.iter
      (fun members ->
        Array.iter (fun i -> Buffer.add_string buf (Dna.Strand.to_string reads.(i)); Buffer.add_char buf '\n') members;
        Buffer.add_char buf '\n')
      result.Clustering.Cluster.clusters;
    write_text output (Buffer.contents buf);
    Printf.printf "clustered %d reads into %d clusters (theta=%d/%d, %d edit comparisons) -> %s\n"
      (Array.length reads) (List.length result.Clustering.Cluster.clusters)
      params.Clustering.Cluster.theta_low params.Clustering.Cluster.theta_high
      result.Clustering.Cluster.stats.Clustering.Cluster.edit_comparisons output
  in
  let domains = Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc:"Worker domains.") in
  Cmd.v (Cmd.info "cluster" ~doc:"Cluster noisy reads by similarity.")
    Term.(const run $ reads $ output $ sig_kind_arg $ seed_arg $ domains)

(* reconstruct *)

let reconstruct_cmd =
  let clusters = Arg.(required & opt (some file) None & info [ "clusters"; "c" ] ~docv:"FILE" ~doc:"Clusters file (blank-line separated).") in
  let output = Arg.(required & opt (some string) None & info [ "output"; "o" ] ~docv:"FASTA" ~doc:"Consensus strands.") in
  let target = Arg.(required & opt (some int) None & info [ "length"; "l" ] ~docv:"NT" ~doc:"Expected strand length.") in
  let run clusters_path output target algo recon_backend domains =
    Dna.Par.set_default_domains domains;
    Dna.Alignment.set_default_backend recon_backend;
    let groups = ref [] and cur = ref [] in
    List.iter
      (fun line ->
        let line = String.trim line in
        if line = "" then begin
          if !cur <> [] then groups := Array.of_list (List.rev !cur) :: !groups;
          cur := []
        end
        else
          match Dna.Strand.of_string_opt line with
          | Some s -> cur := s :: !cur
          | None -> ())
      (read_lines clusters_path);
    if !cur <> [] then groups := Array.of_list (List.rev !cur) :: !groups;
    let groups = Array.of_list (List.rev !groups) in
    let recon = make_recon algo in
    let consensus =
      Dna.Par.map_array ~label:"cli.reconstruct" ~domains
        (fun reads -> if Array.length reads = 0 then None else Some (recon ~target_len:target reads))
        groups
    in
    let records =
      Array.to_list consensus |> List.filteri (fun _ c -> c <> None)
      |> List.mapi (fun i c -> { Dna.Fasta.id = Printf.sprintf "consensus_%d" i; seq = Option.get c })
    in
    Dna.Fasta.write_file output records;
    Printf.printf "reconstructed %d consensus strands -> %s\n" (List.length records) output
  in
  let domains = Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc:"Worker domains.") in
  Cmd.v (Cmd.info "reconstruct" ~doc:"Reconstruct original strands from clusters.")
    Term.(const run $ clusters $ output $ target $ recon_arg $ recon_backend_arg $ domains)

(* decode *)

let decode_cmd =
  let consensus = Arg.(required & opt (some file) None & info [ "consensus"; "c" ] ~docv:"FASTA" ~doc:"Reconstructed strands.") in
  let meta = Arg.(required & opt (some file) None & info [ "meta"; "m" ] ~docv:"META" ~doc:"Metadata sidecar written by encode.") in
  let output = Arg.(required & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Recovered file.") in
  let run consensus meta output =
    let params, layout, n_units = read_meta meta in
    let records, _ = Dna.Fasta.read_file consensus in
    let strands = List.map (fun r -> r.Dna.Fasta.seq) records in
    match Codec.File_codec.decode ~layout ~params ~n_units strands with
    | Ok (bytes, stats) ->
        write_binary output bytes;
        let failed =
          Array.fold_left
            (fun a u -> a + List.length u.Codec.Matrix_codec.failed_codewords)
            0 stats.Codec.File_codec.units
        in
        Printf.printf "decoded %d bytes -> %s (failed codewords: %d, missing molecules: %d)\n"
          (Bytes.length bytes) output failed stats.Codec.File_codec.missing_strands
    | Error e ->
        Printf.eprintf "decode failed: %s\n" (Codec.File_codec.error_message e);
        exit 1
  in
  Cmd.v (Cmd.info "decode" ~doc:"Decode reconstructed strands back into the file.")
    Term.(const run $ consensus $ meta $ output)

(* pipeline *)

let pipeline_cmd =
  let input = Arg.(required & opt (some file) None & info [ "input"; "i" ] ~docv:"FILE" ~doc:"Input file.") in
  let output = Arg.(required & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Recovered file.") in
  let run input output layout payload data_cols parity channel error_rate coverage algo kind
      recon_backend seed domains =
    Dna.Par.set_default_domains domains;
    Dna.Alignment.set_default_backend recon_backend;
    let params = params_of ~payload ~data_cols ~parity in
    let rng = Dna.Rng.create seed in
    let stages =
      {
        Dnastore.Pipeline.channel = make_channel channel error_rate;
        sequencing = Simulator.Sequencer.default_params ~coverage:(Simulator.Sequencer.Fixed coverage);
      }
    in
    let pooled =
      {
        Dnastore.Pipeline.cluster_pool = Dnastore.Pipeline.cluster_pool_default ~kind ~domains ();
        reconstruct_pool = make_slice_recon algo;
      }
    in
    let data = read_binary input in
    let out =
      Dnastore.Pipeline.run ~params ~layout ~stages ~pooled ~domains rng data
    in
    (match out.Dnastore.Pipeline.file with
    | Some bytes -> write_binary output bytes
    | None -> ());
    let t = out.Dnastore.Pipeline.timings in
    Printf.printf
      "pipeline: %s (strands=%d reads=%d clusters=%d)\n\
       latency: encode=%.2fs simulate=%.2fs cluster=%.2fs reconstruct=%.2fs decode=%.2fs total=%.2fs\n"
      (if out.Dnastore.Pipeline.exact then "file recovered exactly"
       else "RECOVERY INCOMPLETE (bytes differ)")
      out.n_strands out.n_reads out.n_clusters t.Dnastore.Pipeline.encode_s t.simulate_s
      t.cluster_s t.reconstruct_s t.decode_s (Dnastore.Pipeline.total_s t);
    print_string
      (Dnastore.Report.recon_percentiles ~p50_s:t.Dnastore.Pipeline.reconstruct_p50_s
         ~p95_s:t.Dnastore.Pipeline.reconstruct_p95_s);
    print_string
      (Dnastore.Report.recon_alloc ~n_clusters:out.Dnastore.Pipeline.n_clusters
         ~words_per_cluster:out.Dnastore.Pipeline.reconstruct_words_per_cluster);
    if not out.Dnastore.Pipeline.exact then
      print_string (Dnastore.Report.recovery out.Dnastore.Pipeline.partial);
    (match Dna.Par.counters () with
    | [] -> ()
    | counters -> print_string (Dnastore.Report.par_counters counters));
    if not out.Dnastore.Pipeline.exact then exit 1
  in
  let domains = Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc:"Worker domains.") in
  Cmd.v (Cmd.info "pipeline" ~doc:"Run the full encode-simulate-cluster-reconstruct-decode pipeline.")
    Term.(const run $ input $ output $ layout_arg $ payload_arg $ data_cols_arg $ parity_arg
          $ channel_arg $ error_rate_arg $ coverage_arg $ recon_arg $ sig_kind_arg
          $ recon_backend_arg $ seed_arg $ domains)

(* fountain-encode / fountain-decode *)

let write_fountain_meta path ~(params : Codec.Fountain.params) ~k ~file_bytes =
  write_text path
    (Printf.sprintf "chunk_bytes=%d\ninner_parity=%d\nc=%f\ndelta=%f\nscramble_seed=%d\nk=%d\nfile_bytes=%d\n"
       params.Codec.Fountain.chunk_bytes params.inner_parity params.c params.delta
       params.scramble_seed k file_bytes)

let read_fountain_meta path =
  let kv =
    List.filter_map
      (fun line ->
        match String.index_opt line '=' with
        | Some i -> Some (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
        | None -> None)
      (read_lines path)
  in
  let get k = try List.assoc k kv with Not_found -> failwith ("meta: missing key " ^ k) in
  ( {
      Codec.Fountain.chunk_bytes = int_of_string (get "chunk_bytes");
      inner_parity = int_of_string (get "inner_parity");
      overhead = Codec.Fountain.default_params.Codec.Fountain.overhead;
      c = float_of_string (get "c");
      delta = float_of_string (get "delta");
      scramble_seed = int_of_string (get "scramble_seed");
    },
    int_of_string (get "k"),
    int_of_string (get "file_bytes") )

let fountain_encode_cmd =
  let input = Arg.(required & opt (some file) None & info [ "input"; "i" ] ~docv:"FILE" ~doc:"Input file.") in
  let output = Arg.(required & opt (some string) None & info [ "output"; "o" ] ~docv:"FASTA" ~doc:"Output droplets.") in
  let overhead = Arg.(value & opt float 0.6 & info [ "overhead" ] ~docv:"F" ~doc:"Droplet overhead factor.") in
  let run input output overhead seed =
    let rng = Dna.Rng.create seed in
    let params = { Codec.Fountain.default_params with Codec.Fountain.overhead } in
    let data = read_binary input in
    let enc = Codec.Fountain.encode ~params rng data in
    let records =
      Array.to_list
        (Array.mapi (fun i s -> { Dna.Fasta.id = Printf.sprintf "droplet_%d" i; seq = s })
           enc.Codec.Fountain.strands)
    in
    Dna.Fasta.write_file output records;
    write_fountain_meta (output ^ ".meta") ~params ~k:enc.Codec.Fountain.k
      ~file_bytes:enc.Codec.Fountain.file_bytes;
    Printf.printf "fountain: %d bytes -> %d droplets (k=%d chunks) in %s (+.meta)\n"
      (Bytes.length data) (Array.length enc.Codec.Fountain.strands) enc.Codec.Fountain.k output
  in
  Cmd.v (Cmd.info "fountain-encode" ~doc:"Encode a file into rateless fountain droplets.")
    Term.(const run $ input $ output $ overhead $ seed_arg)

let fountain_decode_cmd =
  let consensus = Arg.(required & opt (some file) None & info [ "consensus"; "c" ] ~docv:"FASTA" ~doc:"Reconstructed droplets.") in
  let meta = Arg.(required & opt (some file) None & info [ "meta"; "m" ] ~docv:"META" ~doc:"Metadata sidecar.") in
  let output = Arg.(required & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Recovered file.") in
  let run consensus meta output =
    let params, k, file_bytes = read_fountain_meta meta in
    let records, _ = Dna.Fasta.read_file consensus in
    let strands = List.map (fun r -> r.Dna.Fasta.seq) records in
    match Codec.Fountain.decode ~params ~k ~file_bytes strands with
    | Ok (bytes, stats) ->
        write_binary output bytes;
        Printf.printf "decoded %d bytes from %d droplets (%d rejected) -> %s\n"
          (Bytes.length bytes) stats.Codec.Fountain.droplets_used stats.droplets_bad output
    | Error e ->
        Printf.eprintf "decode failed: %s\n" e;
        exit 1
  in
  Cmd.v (Cmd.info "fountain-decode" ~doc:"Decode fountain droplets back into the file.")
    Term.(const run $ consensus $ meta $ output)

(* faults: run the named fault-scenario matrix and print a recovery
   report. The graceful-degradation contract under test: the pipeline
   never raises, reports what fraction of the file survived, and every
   scenario replays bit-identically from its seed. *)

let faults_cmd =
  let input =
    Arg.(value & opt (some file) None & info [ "input"; "i" ] ~docv:"FILE"
         ~doc:"File to push through the faulty pipeline (default: a deterministic pseudo-random payload).")
  in
  let bytes_arg =
    Arg.(value & opt int 2000 & info [ "bytes" ] ~docv:"N"
         ~doc:"Size of the generated payload when no $(b,--input) is given.")
  in
  let scenario_arg =
    Arg.(value & opt (some string) None & info [ "scenario" ] ~docv:"NAME"
         ~doc:"Run only this scenario (default: the whole matrix). Use $(b,--list) to see names.")
  in
  let seeds_arg =
    Arg.(value & opt string "1,2" & info [ "seeds" ] ~docv:"CSV"
         ~doc:"Comma-separated replay seeds; each scenario runs once per seed.")
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List the scenario matrix and exit.")
  in
  let run input bytes scenario_name seeds_csv list_only domains =
    Dna.Par.set_default_domains domains;
    if list_only then begin
      print_string
        (Dnastore.Report.table
           ([ "scenario"; "faults"; "min recovered" ]
           :: List.map
                (fun s ->
                  [
                    s.Dnastore.Faults.scenario_name;
                    (match s.Dnastore.Faults.scenario_faults with
                    | [] -> "(none)"
                    | fs -> String.concat " " (List.map Dnastore.Faults.fault_name fs));
                    Printf.sprintf "%.2f" s.Dnastore.Faults.min_recovered;
                  ])
                Dnastore.Faults.scenarios))
    end
    else begin
      let data =
        match input with
        | Some path -> read_binary path
        | None ->
            let r = Dna.Rng.create 0xF11E in
            Bytes.init bytes (fun _ -> Char.chr (Dna.Rng.int r 256))
      in
      let seeds =
        String.split_on_char ',' seeds_csv
        |> List.filter_map (fun s -> int_of_string_opt (String.trim s))
      in
      if seeds = [] then failwith "faults: no valid seeds";
      let scenarios =
        match scenario_name with
        | None -> Dnastore.Faults.scenarios
        | Some name -> (
            match Dnastore.Faults.find_scenario name with
            | Some s -> [ s ]
            | None -> failwith ("faults: unknown scenario " ^ name))
      in
      let violations = ref [] in
      let run_one scenario seed =
        let go () =
          let rng = Dna.Rng.create seed in
          Dnastore.Pipeline.run ~faults:(Dnastore.Faults.plan_of_scenario ~seed scenario) rng data
        in
        let out = go () in
        (* Replay: the same pipeline and fault seeds must reproduce the
           outcome bit-identically. *)
        let out' = go () in
        let same_bytes =
          match (out.Dnastore.Pipeline.file, out'.Dnastore.Pipeline.file) with
          | Some a, Some b -> Bytes.equal a b
          | None, None -> true
          | _ -> false
        in
        let replay_ok =
          same_bytes
          && out.Dnastore.Pipeline.partial.Codec.File_codec.recovered_fraction
             = out'.Dnastore.Pipeline.partial.Codec.File_codec.recovered_fraction
        in
        let fraction = out.Dnastore.Pipeline.partial.Codec.File_codec.recovered_fraction in
        if fraction < scenario.Dnastore.Faults.min_recovered then
          violations :=
            Printf.sprintf "%s seed %d: recovered %.4f < floor %.2f"
              scenario.Dnastore.Faults.scenario_name seed fraction
              scenario.Dnastore.Faults.min_recovered
            :: !violations;
        if not replay_ok then
          violations :=
            Printf.sprintf "%s seed %d: replay diverged" scenario.Dnastore.Faults.scenario_name seed
            :: !violations;
        (out, fraction, replay_ok)
      in
      let rows = ref [] in
      List.iter
        (fun scenario ->
          List.iter
            (fun seed ->
              let out, fraction, replay_ok = run_one scenario seed in
              let r, d, l =
                Array.fold_left
                  (fun (r, d, l) s ->
                    match s with
                    | Codec.File_codec.Recovered -> (r + 1, d, l)
                    | Codec.File_codec.Degraded _ -> (r, d + 1, l)
                    | Codec.File_codec.Lost -> (r, d, l + 1))
                  (0, 0, 0)
                  out.Dnastore.Pipeline.partial.Codec.File_codec.unit_status
              in
              rows :=
                [
                  scenario.Dnastore.Faults.scenario_name;
                  string_of_int seed;
                  (if out.Dnastore.Pipeline.exact then "exact"
                   else if out.Dnastore.Pipeline.file <> None then "partial"
                   else "failed");
                  Printf.sprintf "%.4f" fraction;
                  Printf.sprintf "%d/%d/%d" r d l;
                  (if replay_ok then "ok" else "DIVERGED");
                  (match out.Dnastore.Pipeline.stage_failures with
                  | [] -> "-"
                  | fs ->
                      String.concat ";"
                        (List.map (fun (s, _) -> Dnastore.Faults.stage_name s) fs));
                ]
                :: !rows)
            seeds)
        scenarios;
      print_string
        (Dnastore.Report.table
           ([ "scenario"; "seed"; "outcome"; "recovered"; "units R/D/L"; "replay"; "degraded stages" ]
           :: List.rev !rows));
      match !violations with
      | [] -> Printf.printf "\nfault matrix clean: %d scenario runs, no contract violations\n"
                (List.length scenarios * List.length seeds)
      | vs ->
          Printf.eprintf "\n%d contract violation(s):\n" (List.length vs);
          List.iter (fun v -> Printf.eprintf "  %s\n" v) (List.rev vs);
          exit 1
    end
  in
  let domains = Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc:"Worker domains.") in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Run the fault-injection scenario matrix and print a recovery report.")
    Term.(const run $ input $ bytes_arg $ scenario_arg $ seeds_arg $ list_arg $ domains)

(* scenario: the declarative channel-stack engine. list/describe browse
   the builtin registry; run executes one (scenario, fault) cell per
   seed and double-checks bit-identical replay; sweep runs the scenario
   x fault-plan matrix and asserts every recovered-fraction floor. *)

let scenario_cmd =
  let action =
    Arg.(
      required
      & pos 0
          (some (enum [ ("list", `List); ("describe", `Describe); ("run", `Run); ("sweep", `Sweep) ]))
          None
      & info [] ~docv:"ACTION"
          ~doc:
            "$(b,list) the builtin scenarios, $(b,describe) one as JSON, $(b,run) one \
             scenario/fault cell per seed (with a replay check), or $(b,sweep) the scenario x \
             fault matrix against its floors.")
  in
  let name_arg =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"NAME"
         ~doc:"Builtin scenario name (see $(b,list)).")
  in
  let file_arg =
    Arg.(value & opt (some file) None & info [ "file" ] ~docv:"JSON"
         ~doc:"Load the scenario from a JSON description instead of the builtin registry.")
  in
  let fault_arg =
    Arg.(value & opt string "clean" & info [ "fault" ] ~docv:"NAME"
         ~doc:"Fault plan for $(b,run) (a name from $(b,dnastore faults --list)).")
  in
  let faults_arg =
    Arg.(value & opt string "clean,dropout-10,corruption-2" & info [ "faults" ] ~docv:"CSV"
         ~doc:"Fault plans for $(b,sweep).")
  in
  let seeds_arg =
    Arg.(value & opt string "1,2" & info [ "seeds" ] ~docv:"CSV"
         ~doc:"Replay seeds; every cell runs once per seed.")
  in
  let bytes_arg =
    Arg.(value & opt int 2000 & info [ "bytes" ] ~docv:"N"
         ~doc:"Size of the generated payload when no $(b,--input) is given.")
  in
  let input_arg =
    Arg.(value & opt (some file) None & info [ "input"; "i" ] ~docv:"FILE"
         ~doc:"File to push through the stack (default: a deterministic pseudo-random payload).")
  in
  let trace_arg =
    Arg.(value & opt (some file) None & info [ "trace" ] ~docv:"FASTQ"
         ~doc:"Trace for $(b,trace) stages (default: a deterministic synthetic trace).")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"JSON"
         ~doc:"Also write the outcome cells as JSON.")
  in
  let run action name file fault faults_csv seeds_csv bytes input trace out domains =
    Dna.Par.set_default_domains domains;
    let csv s = String.split_on_char ',' s |> List.map String.trim |> List.filter (( <> ) "") in
    let seeds = List.filter_map int_of_string_opt (csv seeds_csv) in
    if seeds = [] then failwith "scenario: no valid seeds";
    let load_file path =
      match Simulator.Scenario.of_string (Bytes.to_string (read_binary path)) with
      | Ok sc -> sc
      | Error e -> failwith ("scenario: " ^ path ^ ": " ^ e)
    in
    let resolve name =
      match (file, name) with
      | Some path, _ -> load_file path
      | None, Some n -> (
          match Simulator.Scenario.find n with
          | Some sc -> sc
          | None -> failwith ("scenario: unknown scenario " ^ n))
      | None, None -> failwith "scenario: give a NAME or --file"
    in
    (* Trace stages need a FASTQ on disk; when none is supplied,
       synthesize a deterministic stand-in so every run still replays. *)
    let with_trace sc =
      if not (Simulator.Scenario.has_trace sc) then sc
      else
        let path =
          match trace with
          | Some p -> p
          | None ->
              let p = Filename.temp_file "dnastore_trace" ".fastq" in
              Simulator.Trace_channel.write_synthetic ~seed:77 p;
              p
        in
        Simulator.Scenario.with_trace_path sc path
    in
    let data () =
      match input with
      | Some path -> read_binary path
      | None ->
          let r = Dna.Rng.create 0xF11E in
          Bytes.init bytes (fun _ -> Char.chr (Dna.Rng.int r 256))
    in
    let finish outcomes violations =
      print_string (Dnastore.Report.scenario_summary outcomes);
      (match out with
      | None -> ()
      | Some path ->
          let oc = open_out path in
          output_string oc (Store_json.to_string (Dnastore.Scenario_run.outcomes_json outcomes));
          close_out oc;
          Printf.printf "wrote %s\n" path);
      match violations with
      | [] -> ()
      | vs ->
          Printf.eprintf "\n%d scenario violation(s):\n" (List.length vs);
          List.iter (fun v -> Printf.eprintf "  %s\n" v) (List.rev vs);
          exit 1
    in
    match action with
    | `List ->
        print_string
          (Dnastore.Report.table
             ([ "scenario"; "stack"; "floors" ]
             :: List.map
                  (fun sc ->
                    [
                      sc.Simulator.Scenario.name;
                      Simulator.Scenario.summary sc;
                      String.concat " "
                        (List.map
                           (fun (f, m) -> Printf.sprintf "%s>=%.2f" f m)
                           sc.Simulator.Scenario.floors);
                    ])
                  Simulator.Scenario.builtins))
    | `Describe ->
        let sc = resolve name in
        Printf.printf "%s: %s\n%s\n\n%s" sc.Simulator.Scenario.name
          sc.Simulator.Scenario.description
          (Simulator.Scenario.summary sc)
          (Simulator.Scenario.to_string sc)
    | `Run ->
        let sc = with_trace (resolve name) in
        let data = data () in
        let violations = ref [] in
        let outcomes =
          List.map
            (fun seed ->
              let go () =
                match Dnastore.Scenario_run.run_full ~fault ~seed ~data sc with
                | Ok r -> r
                | Error e -> failwith ("scenario: " ^ e)
              in
              let o, pipe = go () in
              let _, pipe' = go () in
              (match pipe.Dnastore.Pipeline.decode_error with
              | Some e -> Printf.eprintf "%s seed %d: decode error: %s\n" sc.Simulator.Scenario.name seed e
              | None -> ());
              (match pipe.Dnastore.Pipeline.stage_failures with
              | [] -> ()
              | fs ->
                  Printf.eprintf "%s seed %d: degraded stages: %s\n" sc.Simulator.Scenario.name seed
                    (String.concat ", "
                       (List.map
                          (fun (s, m) -> Dnastore.Faults.stage_name s ^ " (" ^ m ^ ")")
                          fs)));
              (* The replay contract: same (scenario, fault, seed, data)
                 must reproduce the recovered bytes bit-identically. *)
              let same =
                (match (pipe.Dnastore.Pipeline.file, pipe'.Dnastore.Pipeline.file) with
                | Some a, Some b -> Bytes.equal a b
                | None, None -> true
                | _ -> false)
                && pipe.Dnastore.Pipeline.partial.Codec.File_codec.recovered_fraction
                   = pipe'.Dnastore.Pipeline.partial.Codec.File_codec.recovered_fraction
              in
              if not same then
                violations :=
                  Printf.sprintf "%s/%s seed %d: replay diverged" o.Dnastore.Scenario_run.scenario
                    fault seed
                  :: !violations;
              if not o.Dnastore.Scenario_run.passed then
                violations :=
                  Printf.sprintf "%s/%s seed %d: recovered %.4f below floor"
                    o.Dnastore.Scenario_run.scenario fault seed
                    o.Dnastore.Scenario_run.recovered_fraction
                  :: !violations;
              o)
            seeds
        in
        finish outcomes !violations
    | `Sweep ->
        let scenarios =
          match (file, name) with
          | None, None -> List.map with_trace Simulator.Scenario.builtins
          | _ -> [ with_trace (resolve name) ]
        in
        let data = data () in
        let outcomes =
          match
            Dnastore.Scenario_run.sweep ~faults:(csv faults_csv) ~seeds ~data scenarios
          with
          | Ok os -> os
          | Error e -> failwith ("scenario: " ^ e)
        in
        let violations =
          List.map
            (fun (o : Dnastore.Scenario_run.outcome) ->
              Printf.sprintf "%s/%s seed %d: recovered %.4f below floor %.2f"
                o.Dnastore.Scenario_run.scenario o.Dnastore.Scenario_run.fault
                o.Dnastore.Scenario_run.seed o.Dnastore.Scenario_run.recovered_fraction
                (match o.Dnastore.Scenario_run.floor with Some f -> f | None -> 0.0))
            (Dnastore.Scenario_run.failures outcomes)
        in
        finish outcomes violations
  in
  let domains = Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc:"Worker domains.") in
  Cmd.v
    (Cmd.info "scenario"
       ~doc:"Compose and run declarative channel-stack scenarios against fault plans.")
    Term.(
      const run $ action $ name_arg $ file_arg $ fault_arg $ faults_arg $ seeds_arg $ bytes_arg
      $ input_arg $ trace_arg $ out_arg $ domains)

(* inspect: pool statistics a lab would sanity-check before synthesis *)

let inspect_cmd =
  let input = Arg.(required & opt (some file) None & info [ "input"; "i" ] ~docv:"FASTA" ~doc:"Strand pool.") in
  let run input =
    let records, errors = Dna.Fasta.read_file input in
    let strands = List.map (fun r -> r.Dna.Fasta.seq) records in
    let n = List.length strands in
    if n = 0 then failwith "no strands";
    let lengths = List.map Dna.Strand.length strands in
    let gcs = List.map Dna.Strand.gc_content strands in
    let homos = List.map Dna.Strand.max_homopolymer strands in
    let favg l = List.fold_left ( +. ) 0.0 l /. float_of_int n in
    let iavg l = float_of_int (List.fold_left ( + ) 0 l) /. float_of_int n in
    let imin l = List.fold_left min max_int l and imax l = List.fold_left max 0 l in
    Printf.printf "strands: %d (%d malformed records skipped)\n" n (List.length errors);
    Printf.printf "length:  min %d / avg %.1f / max %d nt\n" (imin lengths) (iavg lengths) (imax lengths);
    Printf.printf "GC:      avg %.3f (synthesis-friendly range is 0.4-0.6)\n" (favg gcs);
    Printf.printf "homopolymers: avg max-run %.1f, worst %d\n" (iavg homos) (imax homos);
    let worst = List.filter (fun h -> h > 6) homos in
    if worst <> [] then
      Printf.printf "warning: %d strands carry runs longer than 6 nt\n" (List.length worst)
  in
  Cmd.v (Cmd.info "inspect" ~doc:"Sanity-check a strand pool before synthesis.")
    Term.(const run $ input)

(* store: the persistent sharded object store *)

let store_cmd =
  let dir_arg =
    Arg.(required & opt (some string) None & info [ "dir"; "d" ] ~docv:"DIR" ~doc:"Store directory.")
  in
  let key_arg =
    Arg.(required & opt (some string) None & info [ "key"; "k" ] ~docv:"KEY" ~doc:"Object key.")
  in
  let die e =
    Printf.eprintf "%s\n" (Store.error_message e);
    exit 1
  in
  let or_die = function Ok v -> v | Error e -> die e in
  let opened dir = or_die (Store.open_store ~dir ()) in
  let init_cmd =
    let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Store rng seed.") in
    let shard_target =
      Arg.(
        value
        & opt int Store.default_config.shard_target_strands
        & info [ "shard-target" ] ~docv:"N" ~doc:"Strands per shard before a new one opens.")
    in
    let cache =
      Arg.(
        value
        & opt int Store.default_config.cache_objects
        & info [ "cache" ] ~docv:"N" ~doc:"Decoded-object LRU capacity.")
    in
    let error_rate =
      Arg.(
        value
        & opt float Store.default_config.error_rate
        & info [ "error-rate" ] ~docv:"RATE" ~doc:"Sequencing channel error rate.")
    in
    let coverage =
      Arg.(
        value
        & opt int Store.default_config.coverage
        & info [ "coverage" ] ~docv:"N" ~doc:"Base sequencing depth per access.")
    in
    let run dir seed shard_target_strands cache_objects error_rate coverage =
      let config = { Store.shard_target_strands; cache_objects; error_rate; coverage } in
      let _store = or_die (Store.init ~config ~dir ~seed ()) in
      Printf.printf "initialized store in %s (seed %d)\n" dir seed
    in
    Cmd.v (Cmd.info "init" ~doc:"Create an empty store directory.")
      Term.(const run $ dir_arg $ seed $ shard_target $ cache $ error_rate $ coverage)
  in
  let put_cmd =
    let input =
      Arg.(required & opt (some file) None & info [ "input"; "i" ] ~docv:"FILE" ~doc:"Payload file.")
    in
    let overwrite_flag =
      Arg.(value & flag & info [ "overwrite" ] ~doc:"Replace the key if it already exists.")
    in
    let run dir key input overwrite =
      let store = opened dir in
      let data = read_binary input in
      (match
         if overwrite && Store.mem store key then Store.overwrite store ~key data
         else Store.put store ~key data
       with
      | Ok () -> ()
      | Error e -> die e);
      Printf.printf "stored %s (%d bytes)\n" key (Bytes.length data)
    in
    Cmd.v (Cmd.info "put" ~doc:"Encode a file and store it under a fresh primer pair.")
      Term.(const run $ dir_arg $ key_arg $ input $ overwrite_flag)
  in
  let get_cmd =
    let output =
      Arg.(
        required & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Output file.")
    in
    let domains =
      Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc:"Worker domains for decoding.")
    in
    let degraded =
      Arg.(
        value & flag
        & info [ "degraded" ]
            ~doc:
              "Serve whatever survives when the object's shard is damaged or scrub marked it \
               degraded, instead of failing. Exit 2 signals a partial (non-exact) read.")
    in
    let run dir key output domains recon_backend degraded =
      let store = opened dir in
      if degraded then begin
        let p = or_die (Store.get_partial store ~key) in
        write_binary output p.Store.bytes;
        if p.Store.exact then
          Printf.printf "recovered %s (%d bytes, exact)\n" key (Bytes.length p.Store.bytes)
        else begin
          Printf.printf "degraded read of %s: %.1f%% of %d bytes recovered (%s)\n" key
            (100.0 *. p.Store.recovered_fraction)
            (Bytes.length p.Store.bytes)
            (match p.Store.recovered_ranges with
            | [] -> "no intact ranges"
            | rs -> String.concat ", " (List.map (fun (a, b) -> Printf.sprintf "[%d,%d)" a b) rs));
          exit 2
        end
      end
      else
        match Store.get_batch ~domains ~recon_backend store [ key ] with
        | [ (_, Ok bytes) ] ->
            write_binary output bytes;
            Printf.printf "recovered %s (%d bytes)\n" key (Bytes.length bytes)
        | [ (_, Error e) ] -> die e
        | _ -> assert false
    in
    Cmd.v (Cmd.info "get" ~doc:"Sequence, reconstruct and decode one object.")
      Term.(const run $ dir_arg $ key_arg $ output $ domains $ recon_backend_arg $ degraded)
  in
  let rm_cmd =
    let run dir key =
      let store = opened dir in
      (match Store.delete store ~key with Ok () -> () | Error e -> die e);
      Printf.printf "deleted %s (molecules reclaimed on the next compact)\n" key
    in
    Cmd.v (Cmd.info "rm" ~doc:"Delete an object and retire its primer pair.")
      Term.(const run $ dir_arg $ key_arg)
  in
  let compact_cmd =
    let run dir =
      let store = opened dir in
      let s = or_die (Store.compact store) in
      Printf.printf "rewrote %d objects: %d -> %d strands, %d -> %d shards, %d primer pairs reclaimed\n"
        s.Store.objects_rewritten s.strands_before s.strands_after s.shards_before s.shards_after
        s.primer_pairs_reclaimed;
      if s.Store.objects_dropped > 0 then
        Printf.printf "dropped %d lost object(s) from the directory\n" s.Store.objects_dropped;
      print_string
        (Dnastore.Report.maintenance_counters ~unlink_failures:s.Store.unlink_failures
           ~orphans_reclaimed:0)
    in
    Cmd.v
      (Cmd.info "compact" ~doc:"Re-synthesize live objects into fresh shards and reclaim primers.")
      Term.(const run $ dir_arg)
  in
  let stats_cmd =
    let run dir =
      let store = opened dir in
      print_string (Store.render_stats store);
      let s = Store.stats store in
      print_string
        (Dnastore.Report.maintenance_counters ~unlink_failures:0
           ~orphans_reclaimed:s.Store.orphans_reclaimed)
    in
    Cmd.v (Cmd.info "stats" ~doc:"Print shard, object, primer and cache statistics.")
      Term.(const run $ dir_arg)
  in
  let scrub_cmd =
    let run dir =
      let store = opened dir in
      let r = or_die (Store.scrub store) in
      print_string
        (Dnastore.Report.scrub_summary ~shards_checked:r.Store.shards_checked
           ~shards_corrupt:r.Store.shards_corrupt ~shards_quarantined:r.Store.shards_quarantined
           ~shards_dropped:r.Store.shards_dropped ~objects_checked:r.Store.objects_checked
           ~objects_repaired:r.Store.objects_repaired ~objects_degraded:r.Store.objects_degraded
           ~objects_lost:r.Store.objects_lost ~checksums_backfilled:r.Store.checksums_backfilled);
      if r.Store.objects_degraded > 0 || r.Store.objects_lost > 0 then exit 2
    in
    Cmd.v
      (Cmd.info "scrub"
         ~doc:
           "Verify every shard checksum and self-repair damaged objects. Exit 2 when damage \
            survives the pass (degraded or lost objects).")
      Term.(const run $ dir_arg)
  in
  let corrupt_cmd =
    let mode =
      Arg.(
        value
        & opt (enum [ ("flip", `Flip); ("truncate", `Truncate); ("garbage", `Garbage) ]) `Flip
        & info [ "mode" ] ~docv:"MODE"
            ~doc:
              "Damage to inject: $(b,flip) rewrites bases inside one molecule, $(b,truncate) \
               drops the tail of the shard file, $(b,garbage) replaces it with non-FASTA bytes.")
    in
    let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Injection rng seed.") in
    let run dir key mode seed =
      let store = opened dir in
      let shard =
        match Store.object_shard store ~key with
        | Some s -> s
        | None -> die (Store.Key_not_found key)
      in
      let path =
        match Store.shard_path store ~shard with
        | Some p -> p
        | None -> die (Store.Corrupt (Printf.sprintf "shard %d has no file" shard))
      in
      let content =
        let ic = open_in_bin path in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
      in
      let rng = Dna.Rng.create seed in
      let damaged =
        match mode with
        | `Flip ->
            (* Rewrite a run of bases in the middle of the file, skewing
               the pool without changing its length or framing. *)
            let b = Bytes.of_string content in
            let len = Bytes.length b in
            let flips = ref 0 in
            while !flips < 8 do
              let i = Dna.Rng.int rng len in
              (match Bytes.get b i with
              | 'A' -> Bytes.set b i 'C'
              | 'C' -> Bytes.set b i 'G'
              | 'G' -> Bytes.set b i 'T'
              | 'T' -> Bytes.set b i 'A'
              | _ -> decr flips);
              incr flips
            done;
            Bytes.to_string b
        | `Truncate -> String.sub content 0 (String.length content / 2)
        | `Garbage -> "not a FASTA file\n"
      in
      let oc = open_out_bin path in
      output_string oc damaged;
      close_out oc;
      Printf.printf "corrupted shard %d (%s) under key %s\n" shard path key
    in
    Cmd.v
      (Cmd.info "corrupt"
         ~doc:
           "Deterministically damage the shard holding a key (test tool for the scrub/degraded \
            read path).")
      Term.(const run $ dir_arg $ key_arg $ mode $ seed)
  in
  let crash_matrix_cmd =
    let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.") in
    let scratch =
      Arg.(
        value
        & opt string "/tmp/dnastore-crash-matrix"
        & info [ "scratch" ] ~docv:"DIR" ~doc:"Scratch directory (deleted and recreated per run).")
    in
    let run seed scratch =
      let outcome = Crash_harness.run ~seed ~dir:scratch () in
      print_string (Crash_harness.render outcome);
      if outcome.Crash_harness.failures <> [] then exit 1
    in
    Cmd.v
      (Cmd.info "crash-matrix"
         ~doc:
           "Sweep a simulated kill across every filesystem fault point of a scripted workload \
            and verify that reopening recovers a consistent prefix. Exit 1 on any violation.")
      Term.(const run $ seed $ scratch)
  in
  Cmd.group
    (Cmd.info "store" ~doc:"Persistent sharded DNA object store with rewritable random access.")
    [
      init_cmd; put_cmd; get_cmd; rm_cmd; compact_cmd; stats_cmd; scrub_cmd; corrupt_cmd;
      crash_matrix_cmd;
    ]

(* serve: drive a multi-client workload through the serving layer *)

let serve_cmd =
  let dir_arg =
    Arg.(required & opt (some string) None & info [ "dir"; "d" ] ~docv:"DIR" ~doc:"Store directory.")
  in
  let populate =
    Arg.(
      value & opt int 0
      & info [ "populate" ] ~docv:"N"
          ~doc:"Initialize the directory as a fresh store and put N objects before serving.")
  in
  let ops = Arg.(value & opt int 60 & info [ "ops" ] ~docv:"N" ~doc:"Operations to drive.") in
  let clients =
    Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N" ~doc:"Concurrent closed-loop clients.")
  in
  let read_pct =
    Arg.(
      value & opt float 0.95
      & info [ "read-pct" ] ~docv:"FRAC" ~doc:"Fraction of operations that are gets.")
  in
  let window =
    Arg.(
      value
      & opt int Serve.default_config.Serve.window
      & info [ "window" ] ~docv:"N" ~doc:"Scheduling window: max requests served per round.")
  in
  let max_queue =
    Arg.(
      value
      & opt int Serve.default_config.Serve.max_queue
      & info [ "max-queue" ] ~docv:"N" ~doc:"Admission bound before requests are rejected.")
  in
  let zipf =
    Arg.(value & opt float 0.99 & info [ "zipf" ] ~docv:"S" ~doc:"Zipf skew of key popularity.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.") in
  let domains =
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc:"Worker domains for batched gets.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Per-request queueing deadline; requests waiting longer are answered timed-out.")
  in
  let degraded_reads =
    Arg.(
      value & flag
      & info [ "degraded-reads" ]
          ~doc:"Answer damaged gets with the surviving bytes instead of an error.")
  in
  let run dir populate ops clients read_pct window max_queue zipf seed domains deadline_s
      degraded_reads =
    let die e =
      Printf.eprintf "%s\n" (Store.error_message e);
      exit 1
    in
    let or_die = function Ok v -> v | Error e -> die e in
    let store =
      if populate > 0 then begin
        let store = or_die (Store.init ~dir ~seed ()) in
        let r = Dna.Rng.create (seed * 31) in
        for i = 0 to populate - 1 do
          let data = Bytes.init 120 (fun _ -> Char.chr (Dna.Rng.int r 256)) in
          or_die (Store.put store ~key:(Printf.sprintf "obj%d" i) data)
        done;
        store
      end
      else or_die (Store.open_store ~dir ())
    in
    let keys = Store.keys store in
    if keys = [] then failwith "serve: store has no objects (use --populate)";
    let config =
      {
        Serve.default_config with
        Serve.window;
        Serve.max_queue;
        Serve.domains;
        Serve.deadline_s;
        Serve.degraded_reads;
      }
    in
    let mix = { Serve.Workload.label = Printf.sprintf "read%.0f" (100.0 *. read_pct); Serve.Workload.read_pct } in
    let summary, _ =
      Serve.Workload.run ~config ~mix ~n_clients:clients ~n_ops:ops ~zipf_s:zipf ~seed ~keys store
    in
    print_string (Serve.Workload.render summary);
    print_string
      (Dnastore.Report.cache_counters ~label:"store" ~hits:summary.Serve.Workload.cache_hits
         ~misses:summary.Serve.Workload.cache_misses)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve a multi-client zipfian put/get/overwrite workload through the scheduler.")
    Term.(
      const run $ dir_arg $ populate $ ops $ clients $ read_pct $ window $ max_queue $ zipf $ seed
      $ domains $ deadline $ degraded_reads)

let main =
  let doc = "modular end-to-end DNA data storage codec and simulator" in
  Cmd.group (Cmd.info "dnastore" ~version:"1.0.0" ~doc)
    [
      encode_cmd; simulate_cmd; cluster_cmd; reconstruct_cmd; decode_cmd; pipeline_cmd;
      fountain_encode_cmd; fountain_decode_cmd; inspect_cmd; faults_cmd; scenario_cmd; store_cmd; serve_cmd;
    ]

let () = exit (Cmd.eval main)
