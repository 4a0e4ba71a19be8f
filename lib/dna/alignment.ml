(** Needleman-Wunsch global pairwise alignment with traceback.

    Used in two places: to derive edit scripts between paired clean/noisy
    strands when training the data-driven simulators, and as the pairwise
    kernel of the trace-reconstruction consensus (every read of a cluster
    is aligned against the evolving reference). Unit costs (match 0,
    mismatch/gap 1) make the optimal score equal to the edit distance.

    One kernel computes it: Myers' bit-vector algorithm with Hyyro's
    traceback. One blocked pass over the read stores, per column and
    63-row block, the vertical deltas after the column and the
    horizontal deltas into it; the traceback then reads every neighbor
    it needs from those bits. It is exact by construction, not by a
    guard: the bit vectors encode every cell of the full matrix
    (D[i][j] - D[i-1][j] and D[i][j] - D[i][j-1]), and each traceback
    decision of the classic full-matrix walk is a test on cell
    differences — diagonal iff D[i][j] - D[i-1][j-1] equals the move's
    cost, delete iff D[i][j] - D[i-1][j] = 1 — so the same tie-breaking
    (diagonal, then delete, then insert) reads the same script off the
    bits. No band, no retry, no fallback. The full-matrix DP it is
    checked against lives in the test tree's oracle library.

    The kernel runs over flat [int array]s drawn from a per-domain
    scratch arena (domain-local storage), so hot consensus loops — and
    the [Par.map_array] reconstruction workers — never reallocate DP
    state between calls: no per-call garbage beyond the returned script.
    It reads the reference's match masks off [Strand.eq_masks], built
    once per strand, so every read aligned against one consensus round's
    reference shares them. *)

type op =
  | Match of Nucleotide.t
  | Substitute of Nucleotide.t * Nucleotide.t  (** original base, read base *)
  | Delete of Nucleotide.t  (** base of [a] missing from [b] *)
  | Insert of Nucleotide.t  (** base of [b] absent from [a] *)

type t = {
  score : int;  (** total edit cost *)
  script : op list;  (** operations transforming [a] into [b], left to right *)
}

(* Gap character used in the padded rendering of an alignment. *)
let gap_char = '-'

(* ---------- Per-domain scratch arena ---------- *)

(* One arena per domain: the packed script and the bit-vector kernel's
   four delta planes. Buffers only grow; a reconstruction worker
   aligning thousands of reads against references of similar length
   reuses the same arrays for its whole lifetime. Arrays handed out
   here must never escape a call. *)
type scratch = {
  mutable ops : int array;
  (* One word per (column j, block w) at [j*nw + w]: vertical deltas
     after column j (bit r of block w is row i = 63w + r + 1: [pv] set
     when D[i][j] - D[i-1][j] = +1, [mv] when -1) and horizontal deltas
     into it ([ph]/[mh]: D[i][j] - D[i][j-1], before Myers' shift). *)
  mutable pv : int array;
  mutable mv : int array;
  mutable ph : int array;
  mutable mh : int array;
}

let scratch_key =
  Domain.DLS.new_key (fun () -> { ops = [||]; pv = [||]; mv = [||]; ph = [||]; mh = [||] })

(* Capacity held by the calling domain's alignment arena, in array
   slots — lets allocation accounting (and tests) see that repeated
   aligns reuse buffers instead of growing them. *)
let scratch_capacity_words () =
  let s = Domain.DLS.get scratch_key in
  Array.length s.ops + Array.length s.pv + Array.length s.mv + Array.length s.ph
  + Array.length s.mh

let ensure arr n = if Array.length arr >= n then arr else Array.make (max n (2 * Array.length arr)) 0

(* ---------- Packed scripts ---------- *)

(* The traceback emits ops as packed ints into the arena's [ops] buffer:
   [(kind lsl 4) lor (xa lsl 2) lor xb], kinds 0=match, 1=substitute,
   2=delete, 3=insert (the diagonal kinds are exactly the move's cost).
   Hot consumers (the consensus profile) read the ints directly and
   never pay for an [op list]; the public {!align} decodes the buffer
   into the usual constructors in one pass. *)
type packed = {
  packed_score : int;
  ops : int array;
  off : int;  (** first op *)
  lim : int;  (** one past the last op *)
}

let packed_kind e = e lsr 4

let packed_a e = (e lsr 2) land 3

let packed_b e = e land 3

let op_of_packed e =
  match e lsr 4 with
  | 0 -> Match Nucleotide.all.(e land 3)
  | 1 -> Substitute (Nucleotide.all.((e lsr 2) land 3), Nucleotide.all.(e land 3))
  | 2 -> Delete Nucleotide.all.((e lsr 2) land 3)
  | _ -> Insert Nucleotide.all.(e land 3)

let script_of_packed p =
  let script = ref [] in
  for k = p.lim - 1 downto p.off do
    script := op_of_packed (Array.unsafe_get p.ops k) :: !script
  done;
  !script

(* ---------- Bit-vector kernel ---------- *)

let word_bits = Strand.mask_bits

(* Myers' blocked pass (Hyyro's formulation, as in [Distance]'s
   kernels) with the reference [a] as the pattern (rows) and the read
   [b] as the text (columns), storing every column's delta words in the
   arena's planes (layout at {!scratch}). Column 0 is D[i][0] = i:
   all +1. A block's carry-in is the horizontal delta at its top
   boundary row, +1 into block 0 (row 0 is D[0][j] = j), then each
   block's top-row [ph]/[mh] bit into the next; [hp]/[hm] carry it as
   two bits so the loop has no branch. *)
let bitvector_dp s (a : Strand.t) (b : Strand.t) nw lb =
  let size = nw * (lb + 1) in
  let pv = ensure s.pv size and mv = ensure s.mv size in
  let ph = ensure s.ph size and mh = ensure s.mh size in
  s.pv <- pv;
  s.mv <- mv;
  s.ph <- ph;
  s.mh <- mh;
  let masks = Strand.eq_masks a in
  for w = 0 to nw - 1 do
    Array.unsafe_set pv w (-1);
    Array.unsafe_set mv w 0
  done;
  for j = 1 to lb do
    let base = Strand.unsafe_get_code b (j - 1) * nw in
    let col = j * nw in
    let hp = ref 1 and hm = ref 0 in
    for w = 0 to nw - 1 do
      let eq = Array.unsafe_get masks (base + w) in
      let pvw = Array.unsafe_get pv (col - nw + w) and mvw = Array.unsafe_get mv (col - nw + w) in
      let eq_in = eq lor !hm in
      let xv = eq lor mvw in
      let xh = (((eq_in land pvw) + pvw) lxor pvw) lor eq_in in
      let phw = mvw lor lnot (xh lor pvw) in
      let mhw = pvw land xh in
      Array.unsafe_set ph (col + w) phw;
      Array.unsafe_set mh (col + w) mhw;
      let phs = (phw lsl 1) lor !hp and mhs = (mhw lsl 1) lor !hm in
      Array.unsafe_set pv (col + w) (mhs lor lnot (xv lor phs));
      Array.unsafe_set mv (col + w) (phs land xv);
      hp := (phw lsr (word_bits - 1)) land 1;
      hm := (mhw lsr (word_bits - 1)) land 1
    done
  done

(* Traceback over the stored planes, iterative (300nt+ strands stay off
   the call stack), in the full-matrix walk's tie order: from the corner
   toward the origin, the diagonal when D[i-1][j-1] + cost = D[i][j],
   and D[i][j] - D[i-1][j-1] = hd_j(i) + vd_{j-1}(i); otherwise a delete
   when D[i-1][j] + 1 = D[i][j], i.e. vd_j(i) = +1; otherwise an insert.
   On a match the diagonal always holds (unit-cost neighbors differ by
   at most 1), so only mismatches read bits: row i's block and bit, then
   the words of columns j and j - 1. The decisions need no cell value,
   so the score is summed from the moves' costs. Ops are written
   back-to-front from index [la + lb] (the longest possible script), so
   the finished script reads forward from the returned offset. *)
let bitvector_traceback (s : scratch) (a : Strand.t) (b : Strand.t) nw la lb =
  let ops = ensure s.ops (la + lb) in
  s.ops <- ops;
  let pv = s.pv and mv = s.mv and ph = s.ph and mh = s.mh in
  let k = ref (la + lb) in
  let i = ref la and j = ref lb in
  let score = ref 0 in
  while !i > 0 && !j > 0 do
    let xa = Strand.unsafe_get_code a (!i - 1) and xb = Strand.unsafe_get_code b (!j - 1) in
    decr k;
    if xa = xb then begin
      Array.unsafe_set ops !k ((xa lsl 2) lor xb);
      decr i;
      decr j
    end
    else begin
      let idx = (!j * nw) + ((!i - 1) / word_bits) and r = (!i - 1) mod word_bits in
      incr score;
      let hd = ((Array.unsafe_get ph idx lsr r) land 1) - ((Array.unsafe_get mh idx lsr r) land 1) in
      let vd =
        ((Array.unsafe_get pv (idx - nw) lsr r) land 1)
        - ((Array.unsafe_get mv (idx - nw) lsr r) land 1)
      in
      if hd + vd = 1 then begin
        Array.unsafe_set ops !k ((1 lsl 4) lor (xa lsl 2) lor xb);
        decr i;
        decr j
      end
      else if (Array.unsafe_get pv idx lsr r) land 1 = 1 then begin
        Array.unsafe_set ops !k ((2 lsl 4) lor (xa lsl 2));
        decr i
      end
      else begin
        Array.unsafe_set ops !k ((3 lsl 4) lor xb);
        decr j
      end
    end
  done;
  let score = !score + !i + !j in
  while !i > 0 do
    decr k;
    Array.unsafe_set ops !k ((2 lsl 4) lor (Strand.unsafe_get_code a (!i - 1) lsl 2));
    decr i
  done;
  while !j > 0 do
    decr k;
    Array.unsafe_set ops !k ((3 lsl 4) lor Strand.unsafe_get_code b (!j - 1));
    decr j
  done;
  { packed_score = score; ops; off = !k; lim = la + lb }

(* ---------- Entry points ---------- *)

let align_packed (a : Strand.t) (b : Strand.t) : packed =
  let la = Strand.length a and lb = Strand.length b in
  let s = Domain.DLS.get scratch_key in
  let nw = (la + word_bits - 1) / word_bits in
  if la > 0 && lb > 0 then bitvector_dp s a b nw lb;
  bitvector_traceback s a b nw la lb

let align (a : Strand.t) (b : Strand.t) : t =
  let p = align_packed a b in
  { score = p.packed_score; script = script_of_packed p }

(* Render both strands padded with '-' so that aligned positions line up. *)
let padded t =
  let buf_a = Buffer.create 64 and buf_b = Buffer.create 64 in
  List.iter
    (fun op ->
      match op with
      | Match x ->
          Buffer.add_char buf_a (Nucleotide.to_char x);
          Buffer.add_char buf_b (Nucleotide.to_char x)
      | Substitute (x, y) ->
          Buffer.add_char buf_a (Nucleotide.to_char x);
          Buffer.add_char buf_b (Nucleotide.to_char y)
      | Delete x ->
          Buffer.add_char buf_a (Nucleotide.to_char x);
          Buffer.add_char buf_b gap_char
      | Insert y ->
          Buffer.add_char buf_a gap_char;
          Buffer.add_char buf_b (Nucleotide.to_char y))
    t.script;
  (Buffer.contents buf_a, Buffer.contents buf_b)

(* Apply the script to recover [b] from [a]; sanity check used in tests. *)
let apply_script script =
  let buf = Buffer.create 64 in
  List.iter
    (fun op ->
      match op with
      | Match x -> Buffer.add_char buf (Nucleotide.to_char x)
      | Substitute (_, y) | Insert y -> Buffer.add_char buf (Nucleotide.to_char y)
      | Delete _ -> ())
    script;
  Strand.of_string (Buffer.contents buf)

type op_kind = Kmatch | Ksub | Kdel | Kins

let kind = function
  | Match _ -> Kmatch
  | Substitute _ -> Ksub
  | Delete _ -> Kdel
  | Insert _ -> Kins

(* Counts of each operation kind; the raw material of the learned channel. *)
let counts t =
  List.fold_left
    (fun (m, s, d, i) op ->
      match kind op with
      | Kmatch -> (m + 1, s, d, i)
      | Ksub -> (m, s + 1, d, i)
      | Kdel -> (m, s, d + 1, i)
      | Kins -> (m, s, d, i + 1))
    (0, 0, 0, 0) t.script
