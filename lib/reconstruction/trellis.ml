(** Trellis (BCJR-style) consensus refinement, after the coded trace
    reconstruction line of work the paper's evaluation dataset comes
    from (Srinivasavaradhan et al. [35]).

    Each read is modeled as the output of an
    insertion/deletion/substitution HMM over the current consensus
    estimate: hidden state = (consensus position i, read position j),
    with transitions

      delete   (i, j) -> (i+1, j)        probability p_del
      insert   (i, j) -> (i, j+1)        probability p_ins, base uniform
      emit     (i, j) -> (i+1, j+1)      probability 1 - p_del - p_ins,
                                         base = consensus base w.p. 1 - p_sub

    The forward-backward pass yields, for every consensus position, a
    posterior over the base that produced the read there; multiplying
    the per-read posteriors (summing log-domain evidence) and taking the
    argmax gives a refined consensus. Unlike the hard majority votes of
    BMA and the profile consensus, every read contributes *soft*
    evidence weighted by how well it aligns — the value proposition of
    trellis-based reconstruction. Error rates are estimated per cluster
    from alignments against the reference.

    Regime: the soft evidence pays at *sparse coverage* (<= ~5 reads),
    where hard votes are thin; at comfortable coverage the profile
    consensus is already near-exact and refinement only risks churn, and
    on strongly bursty channels this three-state HMM (no burst state)
    mis-models the noise and the refinement is counterproductive — use
    the profile consensus there. *)

let neg_inf = neg_infinity

let log_add a b =
  if a = neg_inf then b
  else if b = neg_inf then a
  else begin
    let hi = max a b and lo = min a b in
    hi +. log1p (exp (lo -. hi))
  end

type rates = { p_del : float; p_ins : float; p_sub : float }

(* Estimate channel rates from the reads' alignments to the reference;
   floors keep the trellis from becoming overconfident on small
   clusters. *)
let estimate_rates reference (reads : Dna.Strand.t array) : rates =
  let m = ref 0 and s = ref 0 and d = ref 0 and i = ref 0 in
  Array.iter
    (fun read ->
      let mm, ss, dd, ii = Dna.Alignment.counts (Dna.Alignment.align reference read) in
      m := !m + mm;
      s := !s + ss;
      d := !d + dd;
      i := !i + ii)
    reads;
  let total = float_of_int (max 1 (!m + !s + !d + !i)) in
  let clamp x = min 0.3 (max 0.005 x) in
  {
    p_del = clamp (float_of_int !d /. total);
    p_ins = clamp (float_of_int !i /. total);
    p_sub = clamp (float_of_int !s /. total);
  }

(* One read's log-domain base evidence against [reference]: a
   (len x 4) matrix of posterior log-weights for the base occupying each
   consensus position. *)
let read_evidence rates (reference : Dna.Strand.t) (read : Dna.Strand.t) : float array array =
  let l = Dna.Strand.length reference and n = Dna.Strand.length read in
  let lp_del = log rates.p_del
  and lp_ins = log rates.p_ins +. log 0.25
  and lp_diag = log (max 1e-9 (1.0 -. rates.p_del -. rates.p_ins)) in
  let lp_match = lp_diag +. log (1.0 -. rates.p_sub)
  and lp_mismatch = lp_diag +. log (rates.p_sub /. 3.0) in
  let idx i j = (i * (n + 1)) + j in
  let fwd = Array.make ((l + 1) * (n + 1)) neg_inf in
  let bwd = Array.make ((l + 1) * (n + 1)) neg_inf in
  fwd.(idx 0 0) <- 0.0;
  for i = 0 to l do
    for j = 0 to n do
      let here = fwd.(idx i j) in
      if here > neg_inf then begin
        if i < l then fwd.(idx (i + 1) j) <- log_add fwd.(idx (i + 1) j) (here +. lp_del);
        if j < n then fwd.(idx i (j + 1)) <- log_add fwd.(idx i (j + 1)) (here +. lp_ins);
        if i < l && j < n then begin
          let e =
            if Dna.Strand.get_code reference i = Dna.Strand.get_code read j then lp_match
            else lp_mismatch
          in
          fwd.(idx (i + 1) (j + 1)) <- log_add fwd.(idx (i + 1) (j + 1)) (here +. e)
        end
      end
    done
  done;
  bwd.(idx l n) <- 0.0;
  for i = l downto 0 do
    for j = n downto 0 do
      let acc = ref neg_inf in
      if i < l then begin
        let v = bwd.(idx (i + 1) j) in
        if v > neg_inf then acc := log_add !acc (v +. lp_del)
      end;
      if j < n then begin
        let v = bwd.(idx i (j + 1)) in
        if v > neg_inf then acc := log_add !acc (v +. lp_ins)
      end;
      if i < l && j < n then begin
        let v = bwd.(idx (i + 1) (j + 1)) in
        if v > neg_inf then begin
          let e =
            if Dna.Strand.get_code reference i = Dna.Strand.get_code read j then lp_match
            else lp_mismatch
          in
          acc := log_add !acc (v +. e)
        end
      end;
      if not (i = l && j = n) then bwd.(idx i j) <- !acc
    done
  done;
  let total = fwd.(idx l n) in
  let evidence = Array.make_matrix l 4 neg_inf in
  (* Posterior of the diagonal transition consuming read base y_j at
     consensus position i: the evidence that position i "is" base y_j.
     The emission term uses the *hypothetical* base b, not the current
     reference base, so evidence can overturn the reference. *)
  for i = 0 to l - 1 do
    for j = 0 to n - 1 do
      let f = fwd.(idx i j) and b = bwd.(idx (i + 1) (j + 1)) in
      if f > neg_inf && b > neg_inf then begin
        let y = Dna.Strand.get_code read j in
        for base = 0 to 3 do
          let e = if base = y then lp_match else lp_mismatch in
          evidence.(i).(base) <- log_add evidence.(i).(base) (f +. e +. b -. total)
        done
      end
    done;
    (* Deletion mass: the read may skip position i entirely; spread it
       uniformly so a deleted position does not fabricate preference. *)
    ()
  done;
  evidence

(* Refine [reference] by one soft vote over all reads. A position is
   changed only when the challenger's combined log-evidence beats the
   reference base's by [margin] nats: the reference (the profile
   consensus) is already strong, and ambiguous soft evidence — which
   concentrates exactly where indel drift confuses the trellis — must
   not be allowed to churn it. *)
let refine_once ?(margin = 6.0) rates reference (reads : Dna.Strand.t array) : Dna.Strand.t =
  let l = Dna.Strand.length reference in
  let scores = Array.make_matrix l 4 0.0 in
  Array.iter
    (fun read ->
      let ev = read_evidence rates reference read in
      for i = 0 to l - 1 do
        (* Normalize the read's evidence at position i into a proper
           distribution with a floor, then accumulate log-evidence. *)
        let z = Array.fold_left log_add neg_inf ev.(i) in
        for b = 0 to 3 do
          let p = if z = neg_inf then 0.25 else exp (ev.(i).(b) -. z) in
          scores.(i).(b) <- scores.(i).(b) +. log (max 1e-6 (0.02 +. (0.92 *. p)))
        done
      done)
    reads;
  Dna.Strand.init_codes l (fun i ->
      let current = Dna.Strand.get_code reference i in
      let best = ref 0 in
      for b = 1 to 3 do
        if scores.(i).(b) > scores.(i).(!best) then best := b
      done;
      if !best <> current && scores.(i).(!best) -. scores.(i).(current) > margin then !best
      else current)

(* Full reconstruction: seed with the profile consensus (which fixes the
   length), then apply soft trellis refinement passes. *)
let reconstruct ?(iterations = 2) ?refinements ~target_len
    (reads : Dna.Strand.t array) : Dna.Strand.t =
  let reference = ref (Nw_consensus.reconstruct ?refinements ~target_len reads) in
  if Array.length reads > 1 then begin
    let rates = estimate_rates !reference reads in
    for _ = 1 to iterations do
      reference := refine_once rates !reference reads
    done
  end;
  !reference
