open Batlife_numerics

type stats = {
  iterations : int;
  converged_at : int option;
  uniformisation_rate : float;
  mass_residual : float;
  fg_defect : float;
  touched_nnz : int;
  active_rows : int;
  support_lo : int;
  support_hi : int;
  skipped_mass : float;
}

type sweep_progress = {
  sp_step : int;
  sp_converged : bool;
  sp_vector : float array;
  sp_values : float array array;
  sp_skipped : float;
}

type measure =
  | Sum of { lo : int; hi : int; stride : int }
  | Weighted of { slab : int; weights : float array }

(* Process-wide work counters.  They exist so tests and benchmarks can
   assert "this batch of queries cost exactly one sweep" without
   instrumenting call sites.  They are Telemetry counters — Atomic
   cells, safe to bump from any domain — after the historical int refs
   proved racy under Pool fan-out (Par.map tasks each run sweeps).
   [touched_nnz] and [active_rows] tally the work the adaptive-support
   kernel actually performed; products * nnz minus touched_nnz is the
   work it skipped.  A sweep tallies its products, touched nonzeros
   and active rows in its own [work] record and adds them to these
   counters once, when it ends — also when it ends in a budget,
   cancellation or guard error — so a product does no atomic
   read-modify-write; between sweeps the counters are exact. *)
let c_sweeps = Telemetry.counter "transient.sweeps"
let c_products = Telemetry.counter "transient.products"
let c_kernel_builds = Telemetry.counter "transient.kernel_builds"
let c_touched_nnz = Telemetry.counter "transient.touched_nnz"
let c_active_rows = Telemetry.counter "transient.active_rows"

(* Kernel-corruption injection sites: a NaN or a wildly out-of-range
   value written into one vector-matrix product, the bit-flip /
   broken-BLAS class of fault the in-flight guards and the escalation
   ladder exist to catch. *)
let fi_step_nan = Fi.site "transient.step_nan"
let fi_step_overflow = Fi.site "transient.step_overflow"

let h_iterations =
  Telemetry.histogram ~lo:1. ~hi:1e7 "transient.sweep_iterations"

let check_alpha g alpha =
  if Array.length alpha <> Generator.n_states g then
    invalid_arg "Transient: initial distribution has wrong length";
  Array.iter
    (fun p ->
      if p < -1e-12 then invalid_arg "Transient: negative initial probability")
    alpha

(* Time grids feed Poisson truncations: a negative, NaN or infinite
   entry would either raise deep inside the weight computation or make
   the truncation loop forever, so every sweep validates its grid up
   front and reports all offending entries in one structured error. *)
let check_times ~where times =
  let violations = ref [] in
  Array.iteri
    (fun i t ->
      if Float.is_nan t then
        violations :=
          Printf.sprintf "times.(%d) is NaN" i :: !violations
      else if not (Float.is_finite t) then
        violations :=
          Printf.sprintf "times.(%d) = %g is not finite" i t :: !violations
      else if t < 0. then
        violations :=
          Printf.sprintf "times.(%d) = %g is negative" i t :: !violations)
    times;
  match List.rev !violations with
  | [] -> ()
  | vs -> Diag.invalid_model ~what:(where ^ " time grid") vs

(* A user-supplied uniformisation rate below the largest exit rate
   makes P = I + Q/q a non-stochastic matrix (negative diagonal
   entries): the sweep would silently return garbage, so reject it
   with a structured error instead. *)
let resolve_q where ?q g =
  match q with
  | None ->
      let q = Generator.uniformisation_rate g in
      (* A NaN diagonal would make the Poisson truncation loop forever
         (NaN comparisons are all false); fail fast instead. *)
      if not (Float.is_finite q) then
        Diag.invalid_model ~what:(where ^ " uniformisation rate")
          [
            Printf.sprintf
              "generator has non-finite exit rates (uniformisation rate %g)" q;
          ];
      q
  | Some q ->
      let max_exit = Generator.max_exit_rate g in
      if (not (Float.is_finite q)) || q <= 0. then
        Diag.invalid_model ~what:(where ^ " uniformisation rate")
          [ Printf.sprintf "q = %g must be positive and finite" q ];
      if q < max_exit then
        Diag.invalid_model ~what:(where ^ " uniformisation rate")
          [
            Printf.sprintf
              "q = %g is below the largest exit rate %g; P = I + Q/q would \
               have negative entries and the sweep would silently return a \
               wrong result"
              q max_exit;
          ];
      q

let resolve_rate ?(opts = Solver_opts.default) g =
  resolve_q "Transient.resolve_rate" ?q:opts.Solver_opts.unif_rate g

(* ------------------------------------------------------------------ *)
(* The stepping kernel.

   The hot operation of every sweep is v' = v P with P = I + Q/q.  The
   scatter form (accumulate v_i * P_ij into column j, the historical
   [Sparse.vecmat_acc] path) cannot be row-partitioned: concurrent
   domains would race on the shared output columns.  So a sweep
   prepares a kernel once: the CSR {e transpose} of P, over which the
   product becomes a gather — output entry j is the dot product of
   row j of P^T with v, owned by exactly one domain, summed in a fixed
   (CSR) order.  Covering the rows with any disjoint partition then
   yields bitwise-identical results for every job count, which is what
   makes jobs a pure performance knob.

   On top of the gather sits the {e adaptive support window}: the
   iterate of a lifetime sweep is a travelling front over the charge
   grid — most rows hold no mass at any given step.  The kernel tracks
   the set of rows outside which the iterate is exactly zero as a
   sorted array of disjoint index segments, expands it each step along
   the transition structure, and computes the gather only inside it.

   Expansion uses the matrix's {e distinct displacement set} D = { dst
   - src : transitions }, collected once at build time: the rows that
   can be nonzero after a product are exactly the current segments
   shifted by each d in D (merged, clipped).  For the multi-axis grids
   of the battery models the iterate is a thin diagonal band in the
   flattened index space — a dense interval [\[lo, hi)] over-covers it
   by 2–15x, while shifted copies of the segment list preserve the
   band exactly.  When D is large ([> 64]) the kernel falls back to
   dilating each segment by the structural bandwidths (the largest
   index decrease/increase any single transition can cause), which is
   the same over-approximation the interval window used — either way
   mass can never escape the active set silently.

   Pruning is tile-granular: the support is scanned in fixed
   absolute-aligned tiles, and a tile is dropped (zeroed, its mass
   tallied into [skipped]) when every entry is at most the threshold
   and the cumulative skipped mass stays within the error budget.
   Tiles let the support shrink behind the front {e and} carve out
   interior regions the displacement shifts over-covered, at a cost
   linear in the active size — the same order as the gather itself. *)

type kernel = {
  k_states : int;
  k_rate : float;  (** the uniformisation rate [q] baked into P *)
  k_pt : Sparse.t;  (** transpose of [P = I + Q/q] *)
  k_parts : int;
  k_partition : int array;
      (** full-range partition, cached: chunk [i] is
          [\[k_partition.(2i), k_partition.(2i+1))] *)
  k_pool : Pool.t;
  k_down : int;
      (** max index decrease a stored transition causes (src - dst) *)
  k_up : int;  (** max index increase a stored transition causes *)
  k_disp : int array;
      (** sorted distinct displacements [dst - src] of the stored
          transitions (0 always included); [\[||\]] when there are more
          than {!max_displacements}, selecting the bandwidth-interval
          fallback *)
  k_dmin : int;
  k_dmax : int;
      (** the extreme shifts of a dilation: the first and last of
          [k_disp], or [-k_down] and [k_up] in the fallback *)
  k_gap : int;
      (** the largest gap between consecutive displacements: a
          segment at least this long dilates as one interval ([0] in
          the fallback, where every segment does) *)
}

(* Above this many distinct displacements, per-step dilation by
   shifted copies stops being obviously cheap and the kernel falls
   back to interval dilation.  Grid-structured models have a handful
   of displacements (one per transition kind); only genuinely
   unstructured matrices exceed this. *)
let max_displacements = 64

let kernel_for g ~q ~jobs =
  Telemetry.incr c_kernel_builds;
  Telemetry.with_span "transient.kernel_build" @@ fun () ->
  let pool = Pool.get ~jobs in
  let pt = Sparse.transpose (Generator.uniformised g ~q) in
  (* Structural shape of P: entry (r, c) of P^T is the transition
     c -> r, i.e. a displacement of d = r - c in the flattened index
     space.  One O(nnz) pass at build time collects both the extreme
     displacements (the bandwidths) and the distinct-displacement set
     that drives segment dilation for the whole sweep. *)
  let down = ref 0 and up = ref 0 in
  let disp = Hashtbl.create 64 in
  Hashtbl.replace disp 0 ();
  Sparse.iter pt (fun r c _ ->
      let d = r - c in
      if d < 0 then (if -d > !down then down := -d)
      else if d > !up then up := d;
      if not (Hashtbl.mem disp d) then Hashtbl.add disp d ());
  let disp =
    if Hashtbl.length disp > max_displacements then [||]
    else begin
      let a = Array.make (Hashtbl.length disp) 0 in
      let i = ref 0 in
      Hashtbl.iter
        (fun d () ->
          a.(!i) <- d;
          incr i)
        disp;
      Array.sort compare a;
      a
    end
  in
  let parts = Pool.size pool in
  let nd = Array.length disp in
  let gap = ref 0 in
  for j = 1 to nd - 1 do
    gap := Int.max !gap (disp.(j) - disp.(j - 1))
  done;
  {
    k_states = Generator.n_states g;
    k_rate = q;
    k_pt = pt;
    k_parts = parts;
    k_partition =
      Array.concat
        (Array.to_list
           (Array.map
              (fun (lo, hi) -> [| lo; hi |])
              (Sparse.nnz_balanced_partition pt ~parts)));
    k_pool = pool;
    k_down = !down;
    k_up = !up;
    k_disp = disp;
    k_dmin = (if nd > 0 then disp.(0) else - !down);
    k_dmax = (if nd > 0 then disp.(nd - 1) else !up);
    k_gap = !gap;
  }

let make_kernel ?(opts = Solver_opts.default) g =
  let q = resolve_q "Transient.make_kernel" ?q:opts.Solver_opts.unif_rate g in
  kernel_for g ~q ~jobs:(Solver_opts.resolve_jobs opts)

(* Resident-byte estimate of the kernel's own allocations: the CSR
   transpose (float64 values + int32 column stream + int row pointers)
   plus the cached partition and displacement set.  The pool is shared
   process-wide and not attributed here. *)
let kernel_bytes k =
  let nnz = Sparse.nnz k.k_pt in
  (nnz * (8 + 4))
  + (Array.length k.k_pt.Sparse.row_ptr * 8)
  + (Array.length k.k_partition * 8)
  + (Array.length k.k_disp * 8)

(* A caller-supplied kernel must have been prepared for the exact rate
   the sweep resolved, or the Poisson windows and the matrix would
   disagree on q. *)
let check_kernel ~where ~q ~opts g = function
  | Some k ->
      if k.k_states <> Generator.n_states g then
        invalid_arg
          (Printf.sprintf "%s: kernel has %d states but the generator has %d"
             where k.k_states (Generator.n_states g));
      if k.k_rate <> q then
        invalid_arg
          (Printf.sprintf
             "%s: kernel was prepared for q = %g but the sweep resolved q = %g"
             where k.k_rate q);
      k
  | None -> kernel_for g ~q ~jobs:(Solver_opts.resolve_jobs opts)

(* ------------------------------------------------------------------ *)
(* Segmented working vectors.

   A [buf] pairs a [float array] with its support: a sorted array of
   disjoint, maximal half-open index segments, and the invariant,
   maintained by every operation below, is that the vector is exactly
   [0.] outside them.  [blo, bhi) is the segments' hull, kept for the
   mass guards and the reported stats.  All segment boundaries are
   aligned to a fixed tile grid (except where clipped at the state
   count), which is what lets a resumed sweep rebuild the exact live
   support from the stored vector alone: the pruner drops every
   all-zero tile it scans, so the live support is precisely the set of
   tiles holding a nonzero.

   The segments live in a flat int buffer — segment [i] is
   [\[segs.(2i), segs.(2i+1))] for [i < nsegs] — sized once per sweep
   from the tile count T = ⌈n / tile⌉.  Maximal runs of tiles are
   separated by at least one uncovered tile, so a support never has
   more than ⌈T / 2⌉ segments and T + 1 ints always hold it.  Every
   product rewrites its segment sets into these buffers and its floats
   into unboxed fields, so it allocates nothing whatever the state
   count. *)

type buf = {
  v : float array;
  mutable blo : int;
  mutable bhi : int;
  mutable segs : int array;
  mutable nsegs : int;
}

(* The float bookkeeping of a sweep.  An all-float record stores its
   fields unboxed, so updating them per product allocates nothing. *)
type tally = {
  mutable skipped : float;  (** mass the pruner has dropped so far *)
  mutable kept : float;
      (** mass of the latest product over the tiles the pruner kept *)
  mutable cap : float;
      (** the most the pruner may have dropped by the current step *)
}

(* The working state of one sweep, made with its working vectors.
   [cur] is the latest iterate and [next] the buffer the coming product
   writes; the sweep swaps them after each product.  [spare] is a third
   segment buffer: an operation writes its output segments there and
   then swaps it with the target [buf]'s [segs].  [marks] holds the
   per-tile coverage deltas of the dilation and is all zero between
   products.  [chunks] receives the nnz-balanced partition of a product
   dispatched to the pool.  [sums] holds the magnitude of each tile the
   latest product wrote — the ascending sum of its |x_i| from [+0.] —
   in the order a walk of the segments visits the tiles.  [products],
   [touched] and [rows] tally the sweep's work. *)
type work = {
  pt : Sparse.t;
  tile : int;
  marks : int array;
  mutable spare : int array;
  chunks : int array;
  sums : float array;
  mutable cur : buf;
  mutable next : buf;
  tally : tally;
  mutable products : int;
  mutable touched : int;
  mutable rows : int;
}

(* The tile grid: coarse enough that the per-tile sums and decisions
   amortise, fine enough to hug a travelling front.  Derived from the
   state count alone so every consumer (dilation alignment, pruning,
   support recovery on resume) agrees on the grid. *)
let tile_width n = Int.max 8 (Int.min 64 (n / 1024))

(* The state of a sweep over kernel [k] with working vectors [a] (the
   first iterate) and [b].  A dispatched product has at most [k_parts]
   chunks closed by the balance target plus one per segment (see
   {!partition_segs}); a segment buffer has room for the one segment of
   a full support even when n = 0. *)
let make_work k a b =
  let tile = tile_width k.k_states in
  let tiles = (k.k_states + tile - 1) / tile in
  let segments () = Array.make (Int.max 2 (tiles + 1)) 0 in
  let buf v = { v; blo = 0; bhi = 0; segs = segments (); nsegs = 0 } in
  {
    pt = k.k_pt;
    tile;
    marks = Array.make (tiles + 1) 0;
    spare = segments ();
    chunks = Array.make ((2 * k.k_parts) + tiles + 1) 0;
    sums = Array.make tiles 0.;
    cur = buf a;
    next = buf b;
    tally = { skipped = 0.; kept = 0.; cap = 0. };
    products = 0;
    touched = 0;
    rows = 0;
  }

let full_support b =
  let n = Array.length b.v in
  b.segs.(0) <- 0;
  b.segs.(1) <- n;
  b.nsegs <- 1;
  b.blo <- 0;
  b.bhi <- n

(* Give [b] the [count] segments just written into [w.spare]. *)
let install w b count =
  let old = b.segs in
  b.segs <- w.spare;
  w.spare <- old;
  b.nsegs <- count;
  if count = 0 then begin
    b.blo <- 0;
    b.bhi <- 0
  end
  else begin
    b.blo <- b.segs.(0);
    b.bhi <- b.segs.((2 * count) - 1)
  end

(* Append [lo, hi) to the [count] ascending segments of [segs],
   coalescing it with the last one when they overlap or touch, so the
   result stays disjoint, sorted and maximal; returns the new count. *)
let push_seg (segs : int array) count lo hi =
  if count > 0 && lo <= segs.((2 * count) - 1) then begin
    if hi > segs.((2 * count) - 1) then segs.((2 * count) - 1) <- hi;
    count
  end
  else begin
    segs.(2 * count) <- lo;
    segs.((2 * count) + 1) <- hi;
    count + 1
  end

(* Per-element scans of the working vectors.  They live here, on
   concretely typed [float array]s, so the loads compile to unboxed
   primitives whatever the build's cross-module inlining; every range
   is a segment hull inside [\[0, n)].  Sums run in ascending index
   order, the fixed evaluation order the bitwise guarantees of the
   sweeps rely on. *)
let sum_range (v : float array) ~lo ~hi =
  let acc = ref 0. in
  for i = lo to hi - 1 do
    acc := !acc +. Array.unsafe_get v i
  done;
  !acc

(* Whether every |x_i - y_i| on [lo, hi) is at most [tol]: the
   L-infinity convergence test, stopping at the first entry that
   fails it.  A NaN difference fails it, as a NaN maximum would, and
   since that maximum starts at [0.], an empty range passes only a
   tolerance of at least [0.]. *)
let within_tol (x : float array) (y : float array) ~lo ~hi ~tol =
  let i = ref lo in
  while
    !i < hi
    && Float.abs (Array.unsafe_get x !i -. Array.unsafe_get y !i) <= tol
  do
    incr i
  done;
  !i >= hi && tol >= 0.

(* The magnitude of [\[lo, hi)]: the ascending sum of |v_i| from
   [+0.], as {!Sparse.matvec_tiles} sums a tile while it writes it. *)
let[@inline] abs_sum (v : float array) ~lo ~hi =
  let acc = ref 0. in
  for i = lo to hi - 1 do
    acc := !acc +. Float.abs (Array.unsafe_get v i)
  done;
  !acc

(* Whether every |v_i| on [\[lo, hi)] is at most [tau], stopping at
   the first entry that is not. *)
let within_tau (v : float array) ~lo ~hi ~tau =
  let i = ref lo in
  while !i < hi && Float.abs (Array.unsafe_get v !i) <= tau do
    incr i
  done;
  !i >= hi

(* The tightest [(lo, hi)] with every entry outside exactly [0.];
   [(0, 0)] for an all-zero vector.  NaN counts as nonzero. *)
let nonzero_extent (v : float array) =
  let n = Array.length v in
  let lo = ref 0 in
  while !lo < n && Array.unsafe_get v !lo = 0. do incr lo done;
  if !lo = n then (0, 0)
  else begin
    let hi = ref n in
    while Array.unsafe_get v (!hi - 1) = 0. do decr hi done;
    (!lo, !hi)
  end

(* The support of an arbitrary vector, as tile-aligned segments: a
   tile survives iff it holds an entry that is not exactly [0.] (NaN
   counts — it must stay visible to the guards).  Used to seed a sweep
   from alpha and to restore the live support of a checkpointed
   iterate; because the pruner below never leaves an all-zero tile
   active, this reproduces the interrupted sweep's support exactly. *)
let seed_support w b =
  let v = b.v and tile = w.tile and out = w.spare in
  let n = Array.length v in
  let lo0, hi0 = nonzero_extent v in
  let count = ref 0 in
  let t = ref (lo0 / tile * tile) in
  while !t < hi0 do
    let hi = Int.min n (!t + tile) in
    let occupied = ref false in
    let i = ref (Int.max !t lo0) in
    while (not !occupied) && !i < hi do
      if Array.unsafe_get v !i <> 0. then occupied := true;
      incr i
    done;
    if !occupied then count := push_seg out !count !t hi;
    t := hi
  done;
  install w b !count

(* Mark the tiles a shifted segment [lo, hi) covers once clipped to
   [\[0, n)]: +1 at its first tile, -1 just past its last. *)
let mark_tiles (marks : int array) ~n ~tile lo hi =
  let lo = if lo < 0 then 0 else lo and hi = if hi > n then n else hi in
  if lo < hi then begin
    let a = lo / tile and b = (hi + tile - 1) / tile in
    marks.(a) <- marks.(a) + 1;
    marks.(b) <- marks.(b) - 1
  end

(* Rows that can be nonzero after one product: the source segments
   shifted by every distinct displacement (or dilated by the
   bandwidths when the displacement set overflowed), aligned out to
   the tile grid and clipped to [\[0, n)].  This is an
   over-approximation of the true next support — any row outside it
   has all its P^T entries anchored at exact-zero sources — so rows
   outside stay exact zeros and nothing escapes silently.

   Each shifted segment marks the tiles it covers; one scan of the
   marks over the shifted hull then reads back the maximal runs of
   covered tiles, which is the aligned union, merged.  The copies of a
   segment [\[lo, hi)] by consecutive shifts d < d' with
   d' - d <= hi - lo overlap or touch (lo + d' <= hi + d), so a run of
   shifts whose gaps are all at most the segment's length chains into
   one interval, [\[lo + first, hi + last)], and since clipping and
   tile alignment both distribute over a union, the tiles it marks
   are the tiles the copies would mark.  A segment marks once per such
   run: once, [\[lo + dmin, hi + dmax)], when it is at least as long
   as D's largest gap [k_gap], and once per shift only when it is
   shorter than every gap.  In the bandwidth fallback every segment
   marks its one dilated interval.  A full support dilates to itself,
   as 0 is in D.  The cost is O(segments x runs + hull tiles), with no
   sort.  The cover goes to [w.spare]; returns its segment count. *)
let dilate_segs k w (src : buf) =
  let m = src.nsegs and n = k.k_states and segs = src.segs in
  let out = w.spare in
  if m = 0 then 0
  else if m = 1 && segs.(0) = 0 && segs.(1) = n then begin
    out.(0) <- 0;
    out.(1) <- n;
    1
  end
  else begin
    let tile = w.tile and marks = w.marks and disp = k.k_disp in
    let dmin = k.k_dmin and dmax = k.k_dmax in
    let nd = Array.length disp in
    for i = 0 to m - 1 do
      let lo = segs.(2 * i) and hi = segs.((2 * i) + 1) in
      if hi - lo >= k.k_gap then
        mark_tiles marks ~n ~tile (lo + dmin) (hi + dmax)
      else begin
        let j = ref 0 in
        while !j < nd do
          let first = disp.(!j) in
          while !j + 1 < nd && disp.(!j + 1) - disp.(!j) <= hi - lo do
            incr j
          done;
          mark_tiles marks ~n ~tile (lo + first) (hi + disp.(!j));
          incr j
        done
      end
    done;
    (* D holds 0, so its extremes bracket every shift. *)
    let first = Int.max 0 (segs.(0) + dmin) / tile in
    let last = (Int.min n (segs.((2 * m) - 1) + dmax) + tile - 1) / tile in
    let count = ref 0 and depth = ref 0 and start = ref 0 in
    for t = first to last do
      let d = !depth + marks.(t) in
      marks.(t) <- 0;
      if !depth = 0 && d > 0 then start := t
      else if !depth > 0 && d = 0 then begin
        out.(2 * !count) <- !start * tile;
        out.((2 * !count) + 1) <- Int.min n (t * tile);
        incr count
      end;
      depth := d
    done;
    !count
  end

(* Zero the parts of [dst]'s previous support the coming gather will
   not overwrite, so stale mass from two steps ago can never leak
   back in.  Both segment sets are sorted, so one forward walk
   subtracts the new cover from the old. *)
let zero_stale (dst : buf) ~(cover : int array) ~ncover =
  let v = dst.v and old = dst.segs in
  let j = ref 0 in
  for s = 0 to dst.nsegs - 1 do
    let ohi = old.((2 * s) + 1) in
    let pos = ref old.(2 * s) in
    while !pos < ohi do
      while !j < ncover && cover.((2 * !j) + 1) <= !pos do
        incr j
      done;
      if !j >= ncover || cover.(2 * !j) >= ohi then begin
        Array.fill v !pos (ohi - !pos) 0.;
        pos := ohi
      end
      else begin
        let alo = cover.(2 * !j) and ahi = cover.((2 * !j) + 1) in
        if alo > !pos then Array.fill v !pos (alo - !pos) 0.;
        pos := Int.min ohi ahi
      end
    done
  done

(* nnz-balanced chunks covering exactly the active segments, the
   segmented analogue of {!Sparse.nnz_balanced_partition} (same
   nnz-plus-one row weight), written into [w.chunks].  Chunk
   boundaries never straddle a segment, so every chunk is a contiguous
   row range the gather can own.  A chunk closes early only once it
   reaches the balance target, which happens at most [parts] times, so
   there are at most [parts] plus one chunk per segment — a few more
   chunks than workers is fine: {!Pool.run_chunks} assigns chunk [i]
   to worker [i mod size], and the values are bitwise independent of
   the partition anyway.  Returns the chunk count. *)
let partition_segs pt w (b : buf) ~parts =
  let row_ptr = pt.Sparse.row_ptr and segs = b.segs and out = w.chunks in
  let total = ref 0 in
  for s = 0 to b.nsegs - 1 do
    let lo = segs.(2 * s) and hi = segs.((2 * s) + 1) in
    total := !total + (row_ptr.(hi) - row_ptr.(lo)) + (hi - lo)
  done;
  let target = Int.max 1 ((!total + parts - 1) / parts) in
  let count = ref 0 in
  for s = 0 to b.nsegs - 1 do
    let slo = segs.(2 * s) and shi = segs.((2 * s) + 1) in
    let lo = ref slo and acc = ref 0 in
    for r = slo to shi - 1 do
      acc := !acc + (row_ptr.(r + 1) - row_ptr.(r)) + 1;
      if !acc >= target && r + 1 < shi then begin
        out.(2 * !count) <- !lo;
        out.((2 * !count) + 1) <- r + 1;
        incr count;
        lo := r + 1;
        acc := 0
      end
    done;
    if !lo < shi then begin
      out.(2 * !count) <- !lo;
      out.((2 * !count) + 1) <- shi;
      incr count
    end
  done;
  !count

(* Below this many active nonzeros a product runs on the caller: a
   fork-join section costs about 16 us on a 2-vCPU machine, and a
   gather of 7.6k nonzeros takes 12 us sequentially against 24 us on
   two domains, while at 29.7k the two are level (45 vs 41 us) and at
   118k two domains win (258 vs 138 us). *)
let dispatch_nnz = 32_768

(* The tile magnitudes of [b], in visit order, into [w.sums]: what the
   inline gather leaves there, for a product dispatched to the pool. *)
let tile_sums w (b : buf) =
  let segs = b.segs and tile = w.tile in
  let j = ref 0 in
  for s = 0 to b.nsegs - 1 do
    let shi = segs.((2 * s) + 1) in
    let t = ref segs.(2 * s) in
    while !t < shi do
      let hi = if shi - !t > tile then !t + tile else shi in
      w.sums.(!j) <- abs_sum b.v ~lo:!t ~hi;
      incr j;
      t := hi
    done
  done

(* Share [share] of an inline product: share 0 gathers every active
   segment of [w.next] from [w.cur], leaving the tile magnitudes in
   [w.sums]; the other shares have nothing to do.  A closed function
   of [w], so a section allocates nothing. *)
let gather_share w share =
  if share = 0 then begin
    let dst = w.next in
    let segs = dst.segs in
    let at = ref 0 in
    for s = 0 to dst.nsegs - 1 do
      at :=
        Sparse.matvec_tiles w.pt w.cur.v ~dst:dst.v ~sums:w.sums ~at:!at
          ~tile:w.tile ~lo:segs.(2 * s)
          ~hi:segs.((2 * s) + 1)
    done
  end

(* One uniformised step: [w.next] := [w.cur] P, as a gather over the
   transposed matrix restricted to the active segments.  Every active
   entry is (over)written by exactly one writer in the fixed in-row
   order, so the result is bitwise independent of how the rows are
   split.  A product runs on the calling domain — each active segment
   gathered directly, with no partition, its tile magnitudes summed in
   the same pass — when its pool runs sections inline anyway
   (sequential, or nested in another section, as every product of the
   query service is) or when it has fewer than {!dispatch_nnz} active
   nonzeros; only larger products are partitioned into nnz-balanced
   chunks and dispatched, and their tile magnitudes summed after.  Both
   paths are supervised and consult [pool.crash] once per share.  Adds
   the product, its touched nonzeros and its active rows to [w]'s
   tallies; the sweep publishes them when it ends. *)
let step_window k w ~adaptive =
  let src = w.cur and dst = w.next in
  w.products <- w.products + 1;
  (* A full-support sweep keeps [\[0, n)] on both vectors throughout. *)
  if adaptive then begin
    let ncover = dilate_segs k w src in
    zero_stale dst ~cover:w.spare ~ncover;
    install w dst ncover
  end;
  let touched = ref 0 and rows = ref 0 in
  for s = 0 to dst.nsegs - 1 do
    let lo = dst.segs.(2 * s) and hi = dst.segs.((2 * s) + 1) in
    touched := !touched + Sparse.range_nnz k.k_pt ~lo ~hi;
    rows := !rows + (hi - lo)
  done;
  if dst.nsegs > 0 then begin
    let pool = k.k_pool in
    if !touched < dispatch_nnz || Pool.runs_inline pool then
      (* Supervised: a crashed share re-runs in place; the gather
         overwrites the same rows and sums with the same values. *)
      Pool.run_inline ~supervise:true pool gather_share w
    else begin
      let chunks, count =
        if adaptive then
          (w.chunks, partition_segs k.k_pt w dst ~parts:k.k_parts)
        else (k.k_partition, Array.length k.k_partition / 2)
      in
      Pool.run_chunks ~supervise:true pool chunks ~count (fun ~lo ~hi ->
          Sparse.matvec_rows k.k_pt src.v ~dst:dst.v ~lo ~hi);
      tile_sums w dst
    end
  end;
  w.touched <- w.touched + !touched;
  w.rows <- w.rows + !rows;
  if Fi.enabled () then begin
    let at = if dst.blo < dst.bhi then dst.blo else 0 in
    let nan = Fi.fires fi_step_nan in
    if nan then dst.v.(at) <- Float.nan;
    let overflow = Fi.fires fi_step_overflow in
    if overflow then dst.v.(at) <- 1e30;
    (* The entry is in the first tile visited: its magnitude moved. *)
    if (nan || overflow) && dst.blo < dst.bhi then
      w.sums.(0) <-
        abs_sum dst.v ~lo:at ~hi:(Int.min dst.segs.(1) (at + w.tile))
  end

(* Tile-granular pruning: every active tile whose entries are all at
   most [tau] in magnitude AND whose mass fits the remaining
   skipped-mass cap [w.tally.cap] is dropped — zeroed, its mass added
   to [w.tally.skipped] — and the surviving tiles become the new
   support, written straight into [w.spare] and merged as they come;
   their masses add up to [w.tally.kept], the mass guard's reading.
   The walk steps tile boundaries by [+ tile], since segments start on
   the grid.

   The decision reads the tile's magnitude [s] from [w.sums] and
   rescans the tile for an entry above [tau] only when
   [s <= 2 len tau], [len] its width — the all-zero tiles and those
   near the threshold.  That is the test [max |x_i| <= tau] exactly:
   if every |x_i| <= tau, the rounded ascending sum of [len <= 64] of
   them is at most [len tau (1 + 2^-53)^len < 2 len tau], so a larger
   [s] proves an entry above [tau]; a NaN entry makes [s] NaN, which
   fails both this test and the cap test, so its tile stays whatever
   its other entries are; a negative or NaN [tau] keeps every tile,
   as [max <= tau] does.  The cap test reads the same [s].

   All-zero tiles always qualify at zero cost, so the support never
   retains a tile without a nonzero (the property resume relies on).
   With [tau = 0.] only exact zeros are consumed and the skipped tally
   stays [+0.], which is what makes the threshold-0 adaptive sweep
   bitwise identical to the full-support kernel.  NaN never qualifies,
   so an injected NaN survives for the mass guard to catch. *)
let[@inline] droppable (v : float array) ~lo ~hi ~sum ~tau ~skipped ~cap =
  sum <= 2. *. float_of_int (hi - lo) *. tau
  && skipped +. sum <= cap
  && within_tau v ~lo ~hi ~tau

let prune_decision (v : float array) ~tau ~skipped ~cap =
  let n = Array.length v in
  droppable v ~lo:0 ~hi:n ~sum:(abs_sum v ~lo:0 ~hi:n) ~tau ~skipped ~cap

let prune_segments w (b : buf) ~tau =
  let v = b.v and tile = w.tile and segs = b.segs and out = w.spare in
  let sums = w.sums and a = w.tally in
  let cap = a.cap in
  let sk = ref a.skipped and kept = ref 0. in
  let count = ref 0 and j = ref 0 in
  for s = 0 to b.nsegs - 1 do
    let shi = segs.((2 * s) + 1) in
    let t = ref segs.(2 * s) in
    while !t < shi do
      let hi = if shi - !t > tile then !t + tile else shi in
      let sum = sums.(!j) in
      if droppable v ~lo:!t ~hi ~sum ~tau ~skipped:!sk ~cap then begin
        if sum > 0. then begin
          sk := !sk +. sum;
          Array.fill v !t (hi - !t) 0.
        end
      end
      else begin
        kept := !kept +. sum;
        count := push_seg out !count !t hi
      end;
      incr j;
      t := hi
    done
  done;
  a.skipped <- !sk;
  a.kept <- !kept;
  install w b !count

(* The error-budget split.  Fox–Glynn truncation already spends up to
   [accuracy] (its defect is audited against it); the adaptive kernel
   gets an {e additional} skipped-mass allowance of [accuracy / 2],
   spread uniformly over the sweep's steps: the auto threshold is the
   per-step share [budget / (n_max + 1)], so a step that prunes a few
   edge entries at the threshold stays on budget, and the running
   tally is hard-capped by [budget_skip] regardless — correctness
   never depends on the threshold, only greediness does.  The sweep
   additionally prorates the cap over steps (step m may only have
   consumed the fraction [m / n_max] of it) so the spend rate is
   sustainable end-to-end rather than front-loaded — the tile pruner
   can see many sub-threshold tiles in one step, and without the rate
   limit a greedy early step would exhaust the whole budget and the
   support could never shrink again.  (Dividing the budget by the
   state count instead would be sound but hopelessly conservative.)
   A caller-supplied threshold keeps the
   same cap unless it is so large the cap would be unreachable, in
   which case the cap scales with the threshold (and the documented
   deviation bound scales with it — reported in {!stats.skipped_mass}
   either way). *)
let resolve_pruning ~opts ~n_max =
  if not opts.Solver_opts.adaptive_support then (0., 0.)
  else begin
    let steps = float_of_int (n_max + 1) in
    let tau =
      match opts.Solver_opts.support_threshold with
      | Some tau -> tau
      | None -> 0.5 *. opts.Solver_opts.accuracy /. steps
    in
    let budget_skip =
      Float.max (opts.Solver_opts.accuracy /. 2.) (tau *. steps)
    in
    (tau, budget_skip)
  end

(* In-flight guardrail for the uniformised power sweep: the iterate is
   a probability vector, so its mass — the magnitudes of the tiles the
   product kept plus whatever the pruner deliberately skipped — must
   stay at the initial mass (the expanded generators conserve it
   exactly up to roundoff) and every entry must stay finite.  A
   violation beyond [mass_tolerance] means the generator rows do not
   sum to zero or the arithmetic broke down; propagating further would
   only weight garbage by Poisson factors.  The tile magnitudes come
   from the product's own pass, so the guard reads no entry again; a
   NaN or infinite entry makes its tile's magnitude, and so the mass,
   non-finite. *)
let mass_tolerance = 1e-6

let mass_breakdown ~where ~mass0 ~step mass =
  if not (Float.is_finite mass) then
    Diag.breakdown ~where
      "non-finite probability entries at uniformisation step %d" step
  else
    Diag.breakdown ~where
      "probability mass drifted from %g to %g at uniformisation step %d \
       (tolerance %g): the generator's row sums are not zero"
      mass0 mass step mass_tolerance

(* [tolerance] is [mass_tolerance *. Float.max 1. mass0]. *)
let guard_iterate ~where ~mass0 ~tolerance ~step (a : tally) =
  let mass = a.kept +. a.skipped in
  if (not (Float.is_finite mass)) || Float.abs (mass -. mass0) > tolerance
  then mass_breakdown ~where ~mass0 ~step (a.kept +. a.skipped)

(* A-posteriori self-verification of a completed sweep.  The in-flight
   guards catch faults the step they happen; this pass re-derives the
   invariants from the sweep's outputs — final-iterate mass
   conservation (window sum plus skipped mass), the skipped-mass
   budget of the adaptive kernel, and the Fox–Glynn truncation
   accounting of every window — so a fault that slipped between the
   per-step checks (or a bug in them) still cannot leave the sweep's
   results standing.  The audited quantities are returned and exposed
   in {!stats}. *)
let verify_sweep ~where ~accuracy ~mass0 ~windows ~skipped ~budget_skip b =
  let mass = sum_range b.v ~lo:b.blo ~hi:b.bhi +. skipped in
  if not (Float.is_finite mass) then
    Diag.breakdown ~where
      "a-posteriori check: final iterate has non-finite probability mass";
  let mass_residual = Float.abs (mass -. mass0) in
  if mass_residual > mass_tolerance *. Float.max 1. mass0 then
    Diag.breakdown ~where
      "a-posteriori check: probability mass %g drifted from %g by %g \
       (tolerance %g)"
      mass mass0 mass_residual mass_tolerance;
  if skipped > budget_skip then
    Diag.breakdown ~where
      "a-posteriori check: adaptive support skipped %g of probability mass, \
       exceeding its error budget %g"
      skipped budget_skip;
  let fg_defect = ref 0. in
  Array.iter
    (fun w ->
      fg_defect := Float.max !fg_defect w.Poisson.defect;
      let total = Poisson.total w in
      if Float.abs (total -. 1.) > 1e-9 then
        Diag.breakdown ~where
          "a-posteriori check: Fox–Glynn window sums to %.17g after \
           renormalisation"
          total)
    windows;
  if !fg_defect > accuracy then
    Diag.breakdown ~where
      "a-posteriori check: Fox–Glynn truncation defect %g exceeds the \
       requested accuracy %g"
      !fg_defect accuracy;
  (mass_residual, !fg_defect)

(* Working state of a sweep: reuse caller-provided buffers (the
   session fast path — no per-call allocation) or allocate a fresh
   pair, plus the segment buffers of {!work}.  The first buffer is
   seeded with a copy of alpha either way — never alpha itself, which
   the sweep would overwrite in place; an adaptive sweep starts from
   the tile-aligned support of alpha, a full-support one from
   [\[0, n)]. *)
let sweep_work ~where ~n ~alpha ~adaptive kernel buffers =
  let a, b =
    match buffers with
    | None -> (Array.copy alpha, Array.make n 0.)
    | Some (a, b) ->
        if Array.length a <> n || Array.length b <> n then
          invalid_arg (where ^ ": buffers have wrong length");
        Array.blit alpha 0 a 0 n;
        Array.fill b 0 n 0.;
        (a, b)
  in
  let w = make_work kernel a b in
  if adaptive then seed_support w w.cur
  else begin
    full_support w.cur;
    full_support w.next
  end;
  w

(* The mass of a full-support product, which keeps every tile. *)
let keep_all w =
  let kept = ref 0. in
  for j = 0 to Array.length w.sums - 1 do
    kept := !kept +. w.sums.(j)
  done;
  w.tally.kept <- !kept

(* Add a sweep's work to the process-wide counters, once, however the
   sweep ends. *)
let publish w =
  Telemetry.add c_products w.products;
  Telemetry.add c_touched_nnz w.touched;
  Telemetry.add c_active_rows w.rows

let check_windows ~where ~times = function
  | None -> None
  | Some windows ->
      if Array.length windows <> Array.length times then
        invalid_arg (where ^ ": windows and times have different lengths");
      Some windows

(* Measures are checked once per sweep, so the readout below can load
   without bounds checks: a [Sum] has [0 <= lo <= hi <= n] and a
   positive stride, and a [Weighted] measure has a positive slab and a
   weight for every slab of the n states. *)
let check_measures ~where ~n measures =
  Array.iteri
    (fun j m ->
      let reject fmt =
        Printf.ksprintf
          (fun s -> invalid_arg (Printf.sprintf "%s: measure %d %s" where j s))
          fmt
      in
      match m with
      | Sum { lo; hi; stride } ->
          if lo < 0 || lo > hi || hi > n then
            reject "sums over [%d, %d), not inside [0, %d)" lo hi n;
          if stride < 1 then reject "has stride %d < 1" stride
      | Weighted { slab; weights } ->
          if slab < 1 then reject "has slab %d < 1" slab;
          if n > 0 && Array.length weights <= (n - 1) / slab then
            reject "has %d weights of slab %d for %d states"
              (Array.length weights) slab n)
    measures

(* Measure [m] of [b]'s vector, stored at [row.(step)] rather than
   returned, where it would be boxed.  Only the live support
   [\[blo, bhi)] is read: the vector is exactly [0.] outside it, and
   an exact zero added to a sum that starts at [+0.] changes no bit,
   so the value is bitwise the ascending sum over the measure's whole
   index set (for [Weighted], when the weights outside the support are
   finite).  [Weighted] walks slab by slab, each weight loaded once. *)
let eval_measure (row : float array) step m b =
  let v = b.v and blo = b.blo and bhi = b.bhi in
  let acc = ref 0. in
  (match m with
  | Sum { lo; hi; stride } ->
      let hi = if hi < bhi then hi else bhi in
      (* The first index of the progression at or above [blo], found
         without overflow whatever the stride, and without a division
         for unit strides or ranges that miss the support. *)
      let first =
        if lo >= blo then lo
        else if stride = 1 || blo >= hi then blo
        else
          let r = (blo - lo) mod stride in
          if r = 0 then blo
          else if stride - r < hi - blo then blo + (stride - r)
          else hi
      in
      (* A stride of [bhi] or more reaches past [hi] in one jump, like
         the stride itself, and keeps [i + jump] from overflowing. *)
      let jump = if stride < bhi then stride else bhi in
      let i = ref first in
      while !i < hi do
        acc := !acc +. Array.unsafe_get v !i;
        i := !i + jump
      done
  | Weighted { slab; weights } ->
      if blo < bhi then
        for s = blo / slab to (bhi - 1) / slab do
          let w = Array.unsafe_get weights s in
          let base = s * slab in
          let lo = if base > blo then base else blo in
          let hi = if bhi - base > slab then base + slab else bhi in
          for i = lo to hi - 1 do
            acc := !acc +. (w *. Array.unsafe_get v i)
          done
        done);
  Array.unsafe_set row step !acc

(* The one power loop: the sequence v_n = alpha P^n is walked ONCE and
   every registered linear functional is evaluated at every step; each
   (measure, time) result is then a Poisson-weighted scalar sum of the
   measure's per-step series.  Any number of measures and time points
   therefore cost a single power sweep.  Returns the series, the
   windows and the stats; the public entry points below either fold
   every (measure, time) pair or hand the series to a caller that
   folds only the pairs it needs.  [outs], one vector per time point
   (or none), receives the full distributions instead: each iterate is
   added into [outs.(i)] weighted by window [i]'s Poisson probability,
   and the readout is skipped outright when there are no vectors, so
   the measure path pays nothing for it.

   [progress] is invoked after every completed step with a lazy
   snapshot thunk (the copy is only paid when the caller decides to
   checkpoint); [on_interrupt] is invoked with a final snapshot right
   before a budget/cancellation error is raised, so the caller can
   flush a checkpoint covering all completed work; [resume] restores a
   snapshot and continues the walk at the next step.  A resumed sweep
   performs the identical sequence of products, guards, measures and
   convergence tests the uninterrupted sweep would have performed from
   that step on — the support of a restored iterate is rebuilt by the
   same tile scan whose output the pruner maintains live (no active
   tile is ever all-zero) — which is what makes resumed results
   bitwise equal. *)
let series_sweep ?(where = "Transient.multi_measure_sweep")
    ?(opts = Solver_opts.default) ?windows ?buffers ?kernel
    ?(progress = Progress.none) ?(outs = [||]) g ~alpha ~times ~measures =
  let { Progress.on_step; on_interrupt; resume } = progress in
  check_alpha g alpha;
  check_times ~where times;
  check_measures ~where ~n:(Generator.n_states g) measures;
  Telemetry.incr c_sweeps;
  Telemetry.with_span (String.uncapitalize_ascii where) @@ fun () ->
  let n = Generator.n_states g in
  let q = resolve_q where ?q:opts.Solver_opts.unif_rate g in
  let budget = Solver_opts.resolve_budget opts in
  Budget.note_sweep budget;
  let kernel = check_kernel ~where ~q ~opts g kernel in
  (* Poisson windows per time point; the sweep must reach the largest
     right truncation point (unless stationarity is detected first). *)
  let windows =
    match check_windows ~where ~times windows with
    | Some windows -> windows
    | None ->
        Array.map
          (fun t -> Poisson.weights ~accuracy:opts.Solver_opts.accuracy (q *. t))
          times
  in
  let n_max =
    Array.fold_left (fun acc w -> max acc w.Poisson.right) 0 windows
  in
  let adaptive = opts.Solver_opts.adaptive_support in
  let tau, budget_skip = resolve_pruning ~opts ~n_max in
  let tol = opts.Solver_opts.convergence_tol in
  let mass0 = Vector.sum alpha in
  let tolerance = mass_tolerance *. Float.max 1. mass0 in
  let k = Array.length measures in
  (* vals.(j).(m) is measure j evaluated on the step-m iterate. *)
  let vals = Array.make_matrix k (n_max + 1) 0. in
  let w = sweep_work ~where ~n ~alpha ~adaptive kernel buffers in
  Fun.protect ~finally:(fun () -> publish w) @@ fun () ->
  let read_out m b =
    Array.iteri
      (fun i w ->
        let weight = Poisson.prob w m in
        if weight > 0. then Vector.axpy ~alpha:weight ~x:b.v ~y:outs.(i))
      windows
  in
  let record m b =
    for j = 0 to k - 1 do
      let row = vals.(j) in
      eval_measure row m measures.(j) b;
      if Float.is_nan row.(m) then
        Diag.breakdown ~where "measure %d is NaN at uniformisation step %d" j
          m
    done;
    if Array.length outs > 0 then read_out m b
  in
  let converged_at = ref None in
  let start =
    match resume with
    | None ->
        record 0 w.cur;
        1
    | Some r ->
        if Array.length r.sp_vector <> n then
          invalid_arg (where ^ ": resume vector has wrong length");
        if Array.length r.sp_values <> k then
          invalid_arg (where ^ ": resume has wrong measure count");
        if r.sp_step < 0 || r.sp_step > n_max then
          invalid_arg
            (Printf.sprintf "%s: resume step %d outside [0, %d]" where
               r.sp_step n_max);
        if Float.is_nan r.sp_skipped || r.sp_skipped < 0. then
          invalid_arg (where ^ ": resume skipped mass is invalid");
        Array.iteri
          (fun j row ->
            if Array.length row <> r.sp_step + 1 then
              invalid_arg (where ^ ": resume values have wrong length");
            Array.blit row 0 vals.(j) 0 (r.sp_step + 1))
          r.sp_values;
        Array.blit r.sp_vector 0 w.cur.v 0 n;
        (* The pruner zeroes everything it drops and never leaves an
           all-zero tile active, so the stored vector's occupied tiles
           ARE the live support of the interrupted sweep. *)
        if adaptive then seed_support w w.cur;
        w.tally.skipped <- r.sp_skipped;
        if r.sp_converged then converged_at := Some r.sp_step;
        r.sp_step + 1
  in
  let snapshot_at ~step:s ~converged () =
    {
      sp_step = s;
      sp_converged = converged;
      sp_vector = Array.copy w.cur.v;
      sp_values = Array.map (fun row -> Array.sub row 0 (s + 1)) vals;
      sp_skipped = w.tally.skipped;
    }
  in
  let m = ref start in
  while !m <= n_max && Option.is_none !converged_at do
    Budget.note_product budget;
    (match Budget.peek ~what:where budget with
    | None -> ()
    | Some e ->
        (match on_interrupt with
        | Some f -> f (snapshot_at ~step:(!m - 1) ~converged:false ())
        | None -> ());
        Diag.fail e);
    step_window kernel w ~adaptive;
    if adaptive then begin
      (* Prorate the cap: after step m the cumulative skipped mass may
         use at most the fraction m / n_max of the total budget.  A
         greedy threshold front-loads its pruning; without the rate
         limit it can exhaust the whole budget in the early steps, and
         the window then never shrinks again for the rest of the sweep
         — costing MORE total work than a conservative threshold.  The
         proration depends only on m and n_max, so a resumed sweep
         reproduces it bitwise. *)
      w.tally.cap <-
        budget_skip *. float_of_int !m /. float_of_int (max 1 n_max);
      prune_segments w w.next ~tau
    end
    else keep_all w;
    let cur = w.cur and next = w.next in
    let ulo = Int.min cur.blo next.blo and uhi = Int.max cur.bhi next.bhi in
    let still = within_tol cur.v next.v ~lo:ulo ~hi:uhi ~tol in
    w.cur <- next;
    w.next <- cur;
    guard_iterate ~where ~mass0 ~tolerance ~step:!m w.tally;
    record !m next;
    if still then converged_at := Some !m;
    (match on_step with
    | Some f ->
        f ~step:!m
          ~snapshot:
            (snapshot_at ~step:!m ~converged:(Option.is_some !converged_at))
    | None -> ());
    incr m
  done;
  (* If the chain became stationary, later measures are constant and
     later iterates are the last one. *)
  (match !converged_at with
  | Some at ->
      for j = 0 to k - 1 do
        for i = at + 1 to n_max do
          vals.(j).(i) <- vals.(j).(at)
        done
      done;
      if Array.length outs > 0 then
        for i = at + 1 to n_max do
          read_out i w.cur
        done
  | None -> ());
  let iterations = match !converged_at with Some at -> at | None -> n_max in
  Telemetry.observe_int h_iterations iterations;
  let mass_residual, fg_defect =
    verify_sweep ~where ~accuracy:opts.Solver_opts.accuracy ~mass0 ~windows
      ~skipped:w.tally.skipped ~budget_skip w.cur
  in
  ( vals,
    windows,
    {
      iterations;
      converged_at = !converged_at;
      uniformisation_rate = q;
      mass_residual;
      fg_defect;
      touched_nnz = w.touched;
      active_rows = w.rows;
      support_lo = w.cur.blo;
      support_hi = w.cur.bhi;
      skipped_mass = w.tally.skipped;
    } )

let multi_measure_sweep ?opts ?windows ?buffers ?kernel ?progress g ~alpha
    ~times ~measures =
  let series, windows, stats =
    series_sweep ?opts ?windows ?buffers ?kernel ?progress g ~alpha ~times
      ~measures
  in
  ( Array.map
      (fun per_step -> Array.map (fun w -> Poisson.expect w per_step) windows)
      series,
    stats )

let multi_measure_series ?opts ?buffers ?kernel ?progress g ~alpha ~times
    ~windows ~measures =
  let series, _, stats =
    series_sweep ?opts ~windows ?buffers ?kernel ?progress g ~alpha ~times
      ~measures
  in
  (series, stats)

let measure_sweep ?opts ?windows ?buffers ?kernel ?progress g ~alpha ~times
    ~measure =
  let results, stats =
    multi_measure_sweep ?opts ?windows ?buffers ?kernel ?progress g ~alpha
      ~times ~measures:[| measure |]
  in
  (results.(0), stats)

(* The exact readout of the driver: the full-support kernel, and a
   zero tolerance, under which the sweep stops only at an iterate that
   repeats bitwise — every later one would be the same vector — so it
   returns what a sweep through the largest right edge returns. *)
let distribution_sweep ?(opts = Solver_opts.default) g ~alpha ~times =
  let outs = Array.map (fun _ -> Vector.create (Generator.n_states g)) times in
  let _, _, stats =
    series_sweep ~where:"Transient.distribution_sweep"
      ~opts:
        { opts with Solver_opts.adaptive_support = false; convergence_tol = 0. }
      ~outs g ~alpha ~times ~measures:[||]
  in
  (outs, stats)

let solve ?opts g ~alpha ~t =
  let outs, _ = distribution_sweep ?opts g ~alpha ~times:[| t |] in
  outs.(0)
