(* Boxed reference implementations, kept in the test tree only. The
   production decode path is pool-native from the channel to the
   decoder; these strand-array compositions are what it is checked
   against, bit for bit. *)

(* Largest clusters first; equal sizes tie-break on their reads
   (length, then lexicographic). The reference order for
   [Pipeline.sort_cluster_slices]. *)
let sort_clusters (clusters : Dna.Strand.t array array) : unit =
  let compare_reads a b =
    match compare (Dna.Strand.length a) (Dna.Strand.length b) with
    | 0 -> Dna.Strand.compare a b
    | c -> c
  in
  Array.sort
    (fun a b ->
      match compare (Array.length b) (Array.length a) with
      | 0 ->
          let n = Array.length a in
          let rec go i =
            if i = n then 0 else match compare_reads a.(i) b.(i) with 0 -> go (i + 1) | c -> c
          in
          go 0
      | c -> c)
    clusters

type boxed_outcome = {
  file : Bytes.t option;  (** [None] when decoding failed *)
  n_reads : int;
  n_clusters : int;
  words_per_cluster : float;  (** mean minor words per NW consensus *)
}

(* The decode path on boxed strand arrays, serial, drawing from [rng]
   in the order [Pipeline.run] does (no faults, no prepare hook):
   encode, [Sequencer.sequence], auto-configured [Cluster.run_scaled],
   [Cluster.read_clusters], [sort_clusters], the boxed
   [Nw_consensus.reconstruct] per cluster, [File_codec.decode]. *)
let boxed_pipeline ?(params = Codec.Params.default) ?(layout = Codec.Layout.Baseline)
    ?(stages = Dnastore.Pipeline.default_stages ()) rng file =
  let encoded = Codec.File_codec.encode ~layout ~params file in
  let reads =
    Simulator.Sequencer.sequence ~domains:1 stages.Dnastore.Pipeline.sequencing
      stages.Dnastore.Pipeline.channel rng encoded.Codec.File_codec.strands
    |> Array.map (fun r -> r.Simulator.Sequencer.seq)
  in
  let clusters =
    if Array.length reads = 0 then []
    else begin
      let read_len = Dna.Strand.length reads.(0) in
      let p =
        {
          (Clustering.Cluster.default_params ~kind:Clustering.Signature.Qgram ~read_len ()) with
          domains = 1;
        }
      in
      let p = Clustering.Auto_config.apply (Clustering.Auto_config.configure p rng reads) p in
      Clustering.Cluster.read_clusters (Clustering.Cluster.run_scaled p rng reads) reads
    end
  in
  let cluster_arr = Array.of_list (List.map Array.of_list clusters) in
  sort_clusters cluster_arr;
  let target_len = Codec.Params.strand_nt params in
  let words = ref 0.0 in
  let consensus =
    List.filter_map
      (fun cluster ->
        if Array.length cluster = 0 then None
        else begin
          let w0 = Gc.minor_words () in
          let s = Reconstruction.Nw_consensus.reconstruct ~target_len cluster in
          words := !words +. (Gc.minor_words () -. w0);
          Some s
        end)
      (Array.to_list cluster_arr)
  in
  let n_consensus = List.length consensus in
  {
    file =
      (match
         Codec.File_codec.decode ~layout ~params ~n_units:encoded.Codec.File_codec.n_units
           consensus
       with
      | Ok (bytes, _) -> Some bytes
      | Error _ -> None);
    n_reads = Array.length reads;
    n_clusters = List.length clusters;
    words_per_cluster = (if n_consensus = 0 then 0.0 else !words /. float_of_int n_consensus);
  }
