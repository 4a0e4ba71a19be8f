(* Reference implementations, kept in the test tree only: the plain
   dynamic programs the bit-parallel [Dna.Distance] and [Dna.Alignment]
   kernels are checked against, and the boxed strand-array decode
   composition the pool-native pipeline is checked against, bit for
   bit. Written for obviousness, not speed: per-call arrays, no arena. *)

(* Strand lengths on both sides of one, two and three 63-bit block
   edges of the bit-parallel kernels, plus the empty and one-base
   strands: every pair of them is a kernel-boundary case. *)
let block_boundary_lengths = [ 0; 1; 62; 63; 64; 125; 126; 127; 189; 190 ]

(* Stdlib's [min] is polymorphic (a C comparison per call); the DPs
   below only ever compare ints. *)
let min (a : int) b = if a < b then a else b

(* ---------- Edit distance: the two-row scalar DP ---------- *)

let levenshtein a b =
  let la = Dna.Strand.length a and lb = Dna.Strand.length b in
  let prev = Array.init (lb + 1) Fun.id and cur = Array.make (lb + 1) 0 in
  for i = 1 to la do
    cur.(0) <- i;
    let ca = Dna.Strand.get_code a (i - 1) in
    for j = 1 to lb do
      let cost = if ca = Dna.Strand.get_code b (j - 1) then 0 else 1 in
      cur.(j) <- min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit cur 0 prev 0 (lb + 1)
  done;
  prev.(lb)

(* [Some d] when the edit distance [d] is at most [bound], else [None]
   (also for a negative bound). *)
let levenshtein_leq ~bound a b =
  let d = levenshtein a b in
  if d <= bound then Some d else None

(* ---------- Alignment: the full Needleman-Wunsch matrix ---------- *)

(* D.(i).(j) is the edit distance between a[0..i) and b[0..j). The
   traceback walks from the corner toward the origin preferring the
   diagonal, then a deletion, then an insertion — the tie order the
   production kernel reproduces from its delta bits. *)
let align a b : Dna.Alignment.t =
  let la = Dna.Strand.length a and lb = Dna.Strand.length b in
  let d = Array.make_matrix (la + 1) (lb + 1) 0 in
  for i = 0 to la do
    d.(i).(0) <- i
  done;
  for j = 0 to lb do
    d.(0).(j) <- j
  done;
  for i = 1 to la do
    for j = 1 to lb do
      let cost = if Dna.Strand.get_code a (i - 1) = Dna.Strand.get_code b (j - 1) then 0 else 1 in
      d.(i).(j) <- min (d.(i - 1).(j - 1) + cost) (min (d.(i - 1).(j) + 1) (d.(i).(j - 1) + 1))
    done
  done;
  let rec back i j script =
    if i > 0 && j > 0 then begin
      let x = Dna.Strand.get a (i - 1) and y = Dna.Strand.get b (j - 1) in
      let cost = if Dna.Nucleotide.equal x y then 0 else 1 in
      if d.(i - 1).(j - 1) + cost = d.(i).(j) then
        back (i - 1) (j - 1)
          ((if cost = 0 then Dna.Alignment.Match x else Dna.Alignment.Substitute (x, y)) :: script)
      else if d.(i - 1).(j) + 1 = d.(i).(j) then back (i - 1) j (Dna.Alignment.Delete x :: script)
      else back i (j - 1) (Dna.Alignment.Insert y :: script)
    end
    else if i > 0 then back (i - 1) j (Dna.Alignment.Delete (Dna.Strand.get a (i - 1)) :: script)
    else if j > 0 then back i (j - 1) (Dna.Alignment.Insert (Dna.Strand.get b (j - 1)) :: script)
    else script
  in
  { Dna.Alignment.score = d.(la).(lb); script = back la lb [] }

(* ---------- The boxed decode composition ---------- *)

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
