(** Needleman-Wunsch global pairwise alignment with traceback.

    Used in two places: to derive edit scripts between paired clean/noisy
    strands when training the data-driven simulators, and as the pairwise
    kernel of the trace-reconstruction consensus (every read of a cluster
    is aligned against the evolving reference). Unit costs (match 0,
    mismatch/gap 1) make the optimal score equal to the edit distance.

    Three kernels compute the alignment, selected per call or
    process-wide via {!backend} and [?band]:

    - [Full]: the classic O(la*lb) matrix, kept as the reference oracle;
    - the default ([Auto] or [Banded] without [?band]): Myers'
      bit-vector algorithm with Hyyro's traceback. One blocked pass over
      the read stores, per column and 63-row block, the vertical deltas
      after the column and the horizontal deltas into it; the traceback
      then reads every neighbor it needs from those bits. It is exact by
      construction, not by a guard: the bit vectors encode every cell of
      the full matrix (D[i][j] - D[i-1][j] and D[i][j] - D[i][j-1]), and
      each traceback decision of the oracle is a test on cell
      differences — diagonal iff D[i][j] - D[i-1][j-1] equals the move's
      cost, delete iff D[i][j] - D[i-1][j] = 1 — so the same
      tie-breaking (diagonal, then delete, then insert) reads the same
      script off the bits. No band, no retry, no fallback;
    - an explicit [?band]: a fixed Ukkonen band of that half-width around
      the main diagonal, O(la*band) cells. Exact whenever the banded
      score is <= band (the unit-cost matrix satisfies D[i][j] >= |i-j|,
      so every cell of an optimal path, and every cell the greedy
      traceback consults, then carries its true value); otherwise the
      kernel falls back to a full-matrix recompute ({!banded_fallbacks}
      counts these).

    All kernels run over flat [int array]s drawn from a per-domain
    scratch arena (domain-local storage), so hot consensus loops — and
    the [Par.map_array] reconstruction workers — never reallocate DP
    state between calls: no [Array.make_matrix] boxed rows, no per-call
    garbage beyond the returned script. The bit-vector kernel reads the
    reference's match masks off [Strand.eq_masks], built once per strand,
    so every read aligned against one consensus round's reference shares
    them. *)

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

(* ---------- Backend selection ---------- *)

type backend = Auto | Full | Banded

let backend_name = function Auto -> "auto" | Full -> "full" | Banded -> "banded"

let default_backend = Atomic.make Auto

let set_default_backend b = Atomic.set default_backend b

let current_default_backend () = Atomic.get default_backend

(* [Auto] resolves to the fast kernels (bit-vector, or the explicit
   band): both are exact, so the full matrix is only ever needed as an
   oracle or for benchmarking. *)
let use_fast = function
  | Some Full -> false
  | Some (Auto | Banded) -> true
  | None -> ( match Atomic.get default_backend with Full -> false | Auto | Banded -> true)

let default_band = 16

let fallbacks = Atomic.make 0

let banded_fallbacks () = Atomic.get fallbacks

let reset_banded_fallbacks () = Atomic.set fallbacks 0

(* ---------- Per-domain scratch arena ---------- *)

(* One arena per domain: the DP cells, both strands' integer codes, the
   packed script, and the bit-vector kernel's four delta planes. Buffers
   only grow; a reconstruction worker aligning thousands of reads
   against references of similar length reuses the same arrays for its
   whole lifetime. Arrays handed out here must never escape a call. *)
type scratch = {
  mutable cells : int array;
  mutable codes_a : int array;
  mutable codes_b : int array;
  mutable ops : int array;
  (* Bit-vector kernel, one word per (column j, block w) at [j*nw + w]:
     vertical deltas after column j (bit r of block w is row
     i = 63w + r + 1: [pv] set when D[i][j] - D[i-1][j] = +1, [mv] when
     -1) and horizontal deltas into it ([ph]/[mh]: D[i][j] - D[i][j-1],
     before Myers' shift). *)
  mutable pv : int array;
  mutable mv : int array;
  mutable ph : int array;
  mutable mh : int array;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        cells = [||];
        codes_a = [||];
        codes_b = [||];
        ops = [||];
        pv = [||];
        mv = [||];
        ph = [||];
        mh = [||];
      })

(* Capacity held by the calling domain's alignment arena, in array
   slots — lets allocation accounting (and tests) see that repeated
   aligns reuse buffers instead of growing them. *)
let scratch_capacity_words () =
  let s = Domain.DLS.get scratch_key in
  Array.length s.cells + Array.length s.codes_a + Array.length s.codes_b + Array.length s.ops
  + Array.length s.pv + Array.length s.mv + Array.length s.ph + Array.length s.mh

let ensure arr n = if Array.length arr >= n then arr else Array.make (max n (2 * Array.length arr)) 0

(* Branchless minimum: DP cell values depend on random base matches, so
   a compare-and-branch min mispredicts constantly on real reads (unlike
   a microbenchmark aligning one pair, where the predictor memorizes the
   whole matrix). [asr 62] smears the sign of [a - b] into a full mask,
   which is safe at any magnitude a DP cell can hold. *)
let[@inline] imin a b = b + ((a - b) land ((a - b) asr 62))

let fill_codes dst s len =
  for i = 0 to len - 1 do
    Array.unsafe_set dst i (Strand.unsafe_get_code s i)
  done

(* ---------- Packed scripts ---------- *)

(* The tracebacks emit ops as packed ints into the arena's [ops] buffer:
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

(* ---------- Traceback ---------- *)

(* Iterative tracebacks (no recursion: 300nt+ strands stay off the call
   stack), preferring diagonal moves so scripts stay maximally aligned
   (fewer spurious indel pairs). One specialized copy per cell layout:
   the per-step cell reads are plain index arithmetic, not calls through
   a layout closure — at ~la steps per alignment the indirection was
   costing as much as the banded DP itself. Codes come from the
   prefilled arrays rather than per-step bounds-checked [Strand.get].
   The walk runs corner-to-origin, writing packed ops back-to-front
   starting at index [la + lb] (the longest possible script), so the
   finished script reads forward from the returned offset; the cell
   value in hand is carried from step to step (the chosen predecessor's
   value is always known: [diag] for a diagonal move, [here - 1] for a
   gap) instead of being reloaded. *)
let full_traceback cells ca cb la lb ops =
  let stride = lb + 1 in
  let k = ref (la + lb) in
  let i = ref la and j = ref lb in
  let here = ref (Array.unsafe_get cells ((la * stride) + lb)) in
  (* row base of (i - 1), kept incrementally: drops by [stride] on every
     vertical move instead of being remultiplied each step *)
  let prev_r = ref ((la - 1) * stride) in
  while !i > 0 && !j > 0 do
    let prev = !prev_r in
    let xa = Array.unsafe_get ca (!i - 1) and xb = Array.unsafe_get cb (!j - 1) in
    let diag = Array.unsafe_get cells (prev + !j - 1) in
    let cost = if xa = xb then 0 else 1 in
    decr k;
    if diag + cost = !here then begin
      Array.unsafe_set ops !k ((cost lsl 4) lor (xa lsl 2) lor xb);
      here := diag;
      decr i;
      decr j;
      prev_r := prev - stride
    end
    else if Array.unsafe_get cells (prev + !j) + 1 = !here then begin
      Array.unsafe_set ops !k ((2 lsl 4) lor (xa lsl 2));
      here := !here - 1;
      decr i;
      prev_r := prev - stride
    end
    else begin
      Array.unsafe_set ops !k ((3 lsl 4) lor xb);
      here := !here - 1;
      decr j
    end
  done;
  while !i > 0 do
    decr k;
    Array.unsafe_set ops !k ((2 lsl 4) lor (Array.unsafe_get ca (!i - 1) lsl 2));
    decr i
  done;
  while !j > 0 do
    decr k;
    Array.unsafe_set ops !k ((3 lsl 4) lor Array.unsafe_get cb (!j - 1));
    decr j
  done;
  !k

(* ---------- Full-matrix kernel (the oracle) ---------- *)

(* dp cell (i, j) at [i * (lb + 1) + j]: edit distance between a[0..i)
   and b[0..j). *)
let align_full s ca cb la lb =
  let stride = lb + 1 in
  let cells = ensure s.cells ((la + 1) * stride) in
  s.cells <- cells;
  for j = 0 to lb do
    Array.unsafe_set cells j j
  done;
  for i = 1 to la do
    let row = i * stride and prev = (i - 1) * stride in
    Array.unsafe_set cells row i;
    let c = Array.unsafe_get ca (i - 1) in
    for j = 1 to lb do
      let cost = if c = Array.unsafe_get cb (j - 1) then 0 else 1 in
      let d = Array.unsafe_get cells (prev + j - 1) + cost in
      let d =
        let v = Array.unsafe_get cells (row + j - 1) + 1 in
        if v < d then v else d
      in
      let d =
        let v = Array.unsafe_get cells (prev + j) + 1 in
        if v < d then v else d
      in
      Array.unsafe_set cells (row + j) d
    done
  done;
  let ops = ensure s.ops (la + lb) in
  s.ops <- ops;
  let off = full_traceback cells ca cb la lb ops in
  { packed_score = cells.((la * stride) + lb); ops; off; lim = la + lb }

(* ---------- Banded kernel ---------- *)

(* Cells with xlo <= j - i <= xhi (an asymmetric diagonal window,
   xlo <= -1 and xhi >= 1), stored at [i * w + (j - i - xlo)] with
   w = xhi - xlo + 1. The only cells missing a neighbor are the first of
   a row (no left when the window start is the band edge rather than
   column 0) and the last (no up when the window end is the band edge
   rather than [lb]); both are peeled out of the loop so the hot middle
   runs guard-free, reads every neighbor unconditionally, and needs no
   prefill. Returns the banded score, an upper bound on the true
   distance that is exact whenever every cell of an optimal path lies in
   the window (see the module header). *)
let banded_dp cells ca cb la lb xlo xhi =
  let w = xhi - xlo + 1 in
  for j = 0 to min lb xhi do
    Array.unsafe_set cells (j - xlo) j
  done;
  (* General row: handles windows clipped by column 0 (lo = 0) or by
     column lb (hi = lb). Only the few rows near the matrix corners need
     it; recomputing a row is idempotent, so overlap between the edge
     ranges below (possible on tiny matrices) is harmless. *)
  let general_row i =
    let lo = max 0 (i + xlo) and hi = min lb (i + xhi) in
    (* index of (i, j) = rb + j; of (i-1, j) = pb + j *)
    let rb = (i * w) - i - xlo and pb = ((i - 1) * w) - (i - 1) - xlo in
    let c = Array.unsafe_get ca (i - 1) in
    (* First cell of the row: column 0 is a gap run; a band-clipped
       window start has only its diagonal and up neighbors (both in row
       i-1's window, whose left edge is one column further left). *)
    let jstart =
      if lo = 0 then begin
        Array.unsafe_set cells rb i;
        1
      end
      else begin
        let cost = if c = Array.unsafe_get cb (lo - 1) then 0 else 1 in
        let d = Array.unsafe_get cells (pb + lo - 1) + cost in
        let d =
          let v = Array.unsafe_get cells (pb + lo) + 1 in
          if v < d then v else d
        in
        Array.unsafe_set cells (rb + lo) d;
        lo + 1
      end
    in
    (* Last cell: when the window end is the band edge (hi = i + xhi),
       cell (i-1, hi) is outside row i-1's window. *)
    let clipped = hi = i + xhi && hi >= jstart in
    let jend = if clipped then hi - 1 else hi in
    for j = jstart to jend do
      let cost = if c = Array.unsafe_get cb (j - 1) then 0 else 1 in
      let d = Array.unsafe_get cells (pb + j - 1) + cost in
      let d =
        let v = Array.unsafe_get cells (rb + j - 1) + 1 in
        if v < d then v else d
      in
      let d =
        let v = Array.unsafe_get cells (pb + j) + 1 in
        if v < d then v else d
      in
      Array.unsafe_set cells (rb + j) d
    done;
    if clipped then begin
      let cost = if c = Array.unsafe_get cb (hi - 1) then 0 else 1 in
      let d = Array.unsafe_get cells (pb + hi - 1) + cost in
      let d =
        let v = Array.unsafe_get cells (rb + hi - 1) + 1 in
        if v < d then v else d
      in
      Array.unsafe_set cells (rb + hi) d
    end
  in
  (* Interior rows — both window edges band-clipped (0 < lo, hi < lb) —
     are the bulk of the matrix and occupy exactly [i*w .. i*w + w) in
     storage, so they run with two counters bumped by constants instead
     of per-row max/min/multiply: [ib] the row base and [jb] the cb
     index of the row's first column. At narrow bands the general row's
     edge logic costs as much as its cells, so this is where the banded
     kernel earns its keep. *)
  let mid_lo = max 1 (1 - xlo) and mid_hi = min la (lb - xhi) in
  for i = 1 to min la (mid_lo - 1) do
    general_row i
  done;
  let ib = ref (mid_lo * w) and jb = ref (mid_lo + xlo - 1) in
  for i = mid_lo to mid_hi do
    let ib0 = !ib and jb0 = !jb in
    let c = Array.unsafe_get ca (i - 1) in
    (* first cell (i, lo): diagonal and up only *)
    let cost = if c = Array.unsafe_get cb jb0 then 0 else 1 in
    let d = imin (Array.unsafe_get cells (ib0 - w) + cost) (Array.unsafe_get cells (ib0 - w + 1) + 1) in
    Array.unsafe_set cells ib0 d;
    (* The left neighbor is the cell the previous iteration just wrote:
       carry it in a register instead of reloading it. *)
    let prev = ref d in
    for t = 1 to w - 2 do
      let cost = if c = Array.unsafe_get cb (jb0 + t) then 0 else 1 in
      let dg = Array.unsafe_get cells (ib0 - w + t) + cost in
      let up = Array.unsafe_get cells (ib0 - w + t + 1) in
      let d = imin dg (imin !prev up + 1) in
      Array.unsafe_set cells (ib0 + t) d;
      prev := d
    done;
    (* last cell (i, hi): diagonal and left only *)
    let cost = if c = Array.unsafe_get cb (jb0 + w - 1) then 0 else 1 in
    let d = imin (Array.unsafe_get cells (ib0 - 1) + cost) (!prev + 1) in
    Array.unsafe_set cells (ib0 + w - 1) d;
    ib := ib0 + w;
    incr jb
  done;
  for i = max mid_lo (mid_hi + 1) to la do
    general_row i
  done;
  cells.((la * w) - la + lb - xlo)

(* Banded layout: cell (i, j) at [i*w + j - i - xlo]. Every cell the
   traceback visits is on an optimal path and hence in the window, as is
   its chosen predecessor; of the candidate reads, only the up neighbor
   (i-1, j) can fall outside (j - (i-1) > xhi), so that is the only
   window check needed — diag keeps the same offset and left moves it
   down, and a rejected out-of-window up can never be "equal" anyway
   because the insert move is then the one that holds. *)
let banded_traceback cells ca cb la lb xlo xhi ops =
  let w = xhi - xlo + 1 in
  let k = ref (la + lb) in
  let i = ref la and j = ref lb in
  let here = ref (Array.unsafe_get cells ((la * w) - la + lb - xlo)) in
  (* row base of (i - 1) minus the diagonal offset, kept incrementally:
     pbase = (i-1)*(w-1) - xlo drops by w-1 on every vertical move *)
  let pbase_r = ref (((la - 1) * (w - 1)) - xlo) in
  while !i > 0 && !j > 0 do
    let pbase = !pbase_r in
    let xa = Array.unsafe_get ca (!i - 1) and xb = Array.unsafe_get cb (!j - 1) in
    let diag = Array.unsafe_get cells (pbase + !j - 1) in
    let cost = if xa = xb then 0 else 1 in
    decr k;
    if diag + cost = !here then begin
      Array.unsafe_set ops !k ((cost lsl 4) lor (xa lsl 2) lor xb);
      here := diag;
      decr i;
      decr j;
      pbase_r := pbase - w + 1
    end
    else if !j - !i + 1 <= xhi && Array.unsafe_get cells (pbase + !j) + 1 = !here then begin
      Array.unsafe_set ops !k ((2 lsl 4) lor (xa lsl 2));
      here := !here - 1;
      decr i;
      pbase_r := pbase - w + 1
    end
    else begin
      Array.unsafe_set ops !k ((3 lsl 4) lor xb);
      here := !here - 1;
      decr j
    end
  done;
  while !i > 0 do
    decr k;
    Array.unsafe_set ops !k ((2 lsl 4) lor (Array.unsafe_get ca (!i - 1) lsl 2));
    decr i
  done;
  while !j > 0 do
    decr k;
    Array.unsafe_set ops !k ((3 lsl 4) lor Array.unsafe_get cb (!j - 1));
    decr j
  done;
  !k

(* Fixed symmetric band with full-matrix fallback: the [?band]
   contract. Exact whenever the score is <= band: the unit-cost matrix
   satisfies D[i][j] >= |i - j|, so a path costing <= band never leaves
   the window. *)
let align_banded s ca cb la lb band =
  let cells = ensure s.cells ((la + 1) * ((2 * band) + 1)) in
  s.cells <- cells;
  let score = banded_dp cells ca cb la lb (-band) band in
  if score > band then begin
    (* The optimal path may have left the band: recompute in full so the
       result stays exact (and identical to the oracle's). *)
    Atomic.incr fallbacks;
    align_full s ca cb la lb
  end
  else begin
    let ops = ensure s.ops (la + lb) in
    s.ops <- ops;
    let off = banded_traceback s.cells ca cb la lb (-band) band ops in
    { packed_score = score; ops; off; lim = la + lb }
  end

(* ---------- Bit-vector kernel (the default) ---------- *)

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

(* Traceback over the stored planes, with [full_traceback]'s tie order.
   The oracle takes the diagonal when D[i-1][j-1] + cost = D[i][j], and
   D[i][j] - D[i-1][j-1] = hd_j(i) + vd_{j-1}(i); otherwise a delete
   when D[i-1][j] + 1 = D[i][j], i.e. vd_j(i) = +1; otherwise an insert.
   On a match the diagonal always holds (unit-cost neighbors differ by
   at most 1), so only mismatches read bits: row i's block and bit, then
   the words of columns j and j - 1. The decisions need no cell value,
   so the score is summed from the moves' costs. Ops are written
   back-to-front exactly as in [full_traceback]. *)
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

let align_bitvector s a b la lb =
  let nw = (la + word_bits - 1) / word_bits in
  if la > 0 && lb > 0 then bitvector_dp s a b nw lb;
  bitvector_traceback s a b nw la lb

(* ---------- Entry points ---------- *)

let align_packed ?backend ?band (a : Strand.t) (b : Strand.t) : packed =
  let la = Strand.length a and lb = Strand.length b in
  let s = Domain.DLS.get scratch_key in
  match band with
  | None when use_fast backend -> align_bitvector s a b la lb
  | _ -> (
      let ca = ensure s.codes_a la and cb = ensure s.codes_b lb in
      s.codes_a <- ca;
      s.codes_b <- cb;
      fill_codes ca a la;
      fill_codes cb b lb;
      match band with
      | Some w when use_fast backend ->
          let w = max 1 w in
          if abs (la - lb) > w then begin
            (* the band cannot even reach the corner: the same "band too
               narrow" signal as a score overflow, and counted as one *)
            Atomic.incr fallbacks;
            align_full s ca cb la lb
          end
          else align_banded s ca cb la lb w
      | _ -> align_full s ca cb la lb)

let align ?backend ?band (a : Strand.t) (b : Strand.t) : t =
  let p = align_packed ?backend ?band a b in
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
