(* Shared plumbing for the experiment harness: workload sizes, channel
   constructors, cluster/reconstruct runners and printing helpers. Every
   experiment prints the same rows/series as the corresponding table or
   figure of the paper; EXPERIMENTS.md records paper-vs-measured. *)

type scale = Fast | Full

(* DNASTORE_BENCH=fast shrinks every workload for smoke runs. *)
let scale =
  match Sys.getenv_opt "DNASTORE_BENCH" with Some "fast" -> Fast | _ -> Full

let pick ~fast ~full = match scale with Fast -> fast | Full -> full

let section = Dnastore.Report.section
let table = Dnastore.Report.table
let profile = Dnastore.Report.ascii_profile

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Segment-average a profile into [n] buckets for compact table output. *)
let bucketize n (p : float array) =
  let len = Array.length p in
  Array.init n (fun b ->
      let lo = b * len / n and hi = max ((b * len / n) + 1) ((b + 1) * len / n) in
      let s = ref 0.0 in
      for i = lo to hi - 1 do
        s := !s +. p.(i)
      done;
      !s /. float_of_int (hi - lo))

let reconstruct_of = function
  | `Bma -> Reconstruction.Bma.reconstruct ?lookahead:None
  | `Dbma -> Reconstruction.Bma.reconstruct_double ?lookahead:None
  | `Nw -> fun ~target_len reads -> Reconstruction.Nw_consensus.reconstruct ~target_len reads
  | `Ensemble -> fun ~target_len reads -> Reconstruction.Ensemble.reconstruct ~target_len reads

(* [reconstruct_of] over arena index slices: the pipeline's stage type. *)
let reconstruct_pool_of = function
  | `Bma -> fun ~target_len pool idxs -> Reconstruction.Bma.reconstruct_pool ~target_len pool idxs
  | `Dbma ->
      fun ~target_len pool idxs -> Reconstruction.Bma.reconstruct_double_pool ~target_len pool idxs
  | `Nw ->
      fun ~target_len pool idxs -> Reconstruction.Nw_consensus.reconstruct_pool ~target_len pool idxs
  | `Ensemble ->
      fun ~target_len pool idxs -> Reconstruction.Ensemble.reconstruct_pool ~target_len pool idxs

let recon_name = function
  | `Bma -> "BMA"
  | `Dbma -> "DBMA"
  | `Nw -> "NWA"
  | `Ensemble -> "ENSEMBLE"

(* Reconstruct every cluster of a channel's reads and return the
   (original, consensus) pairs: the common core of Figures 3 and 6. *)
let reconstruct_clusters rng channel ~recon ~n_clusters ~coverage ~len =
  List.init n_clusters (fun _ ->
      let clean = Dna.Strand.random rng len in
      let reads = Array.init coverage (fun _ -> Simulator.Channel.transmit channel rng clean) in
      (clean, recon ~target_len:len reads))

let cluster_auto ?(kind = Clustering.Signature.Qgram) rng reads =
  let read_len = Dna.Strand.length reads.(0) in
  let params = Clustering.Cluster.default_params ~kind ~read_len () in
  let config = Clustering.Auto_config.configure params rng reads in
  let params = Clustering.Auto_config.apply config params in
  (Clustering.Cluster.run_scaled params rng reads, params)

let pct = Dnastore.Report.pct
let f3 = Dnastore.Report.f3
let f4 = Dnastore.Report.f4
