module Builder = struct
  type t = {
    rows : int;
    cols : int;
    mutable len : int;
    mutable row : int array;
    mutable col : int array;
    mutable value : float array;
  }

  let create ?(initial_capacity = 1024) ~rows ~cols () =
    if rows <= 0 || cols <= 0 then
      invalid_arg "Sparse.Builder.create: empty dimensions";
    let capacity = max initial_capacity 16 in
    {
      rows;
      cols;
      len = 0;
      row = Array.make capacity 0;
      col = Array.make capacity 0;
      value = Array.make capacity 0.;
    }

  let grow b =
    let capacity = 2 * Array.length b.row in
    let row = Array.make capacity 0
    and col = Array.make capacity 0
    and value = Array.make capacity 0. in
    Array.blit b.row 0 row 0 b.len;
    Array.blit b.col 0 col 0 b.len;
    Array.blit b.value 0 value 0 b.len;
    b.row <- row;
    b.col <- col;
    b.value <- value

  let add b i j v =
    if i < 0 || i >= b.rows || j < 0 || j >= b.cols then
      invalid_arg
        (Printf.sprintf "Sparse.Builder.add: index (%d,%d) out of %dx%d" i j
           b.rows b.cols);
    if v <> 0. then begin
      if b.len = Array.length b.row then grow b;
      b.row.(b.len) <- i;
      b.col.(b.len) <- j;
      b.value.(b.len) <- v;
      b.len <- b.len + 1
    end

  let nnz b = b.len

  let rows b = b.rows

  let cols b = b.cols

  let iter b f =
    for k = 0 to b.len - 1 do
      f b.row.(k) b.col.(k) b.value.(k)
    done
end

type index_array =
  (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type value_array =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  rows : int;
  cols : int;
  row_ptr : int array;
  col_idx : index_array;
  values : value_array;
}

(* The CSR streams are flat Bigarray buffers: [values] float64,
   [col_idx] int32, so the gather loop reads half the index bytes an
   [int array] would cost and never touches a boxed cell.  [row_ptr]
   stays a plain [int array]: it is rows+1 long, read once per row
   (not once per nonzero), and an int avoids the per-row Int32
   conversion without widening any hot stream. *)

let check_col_range ~cols =
  if cols > Int32.to_int Int32.max_int then
    invalid_arg
      (Printf.sprintf "Sparse: %d columns exceed the int32 index range" cols)

let index_array_of ~len a =
  let ia = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout len in
  for k = 0 to len - 1 do
    Bigarray.Array1.unsafe_set ia k (Int32.of_int (Array.unsafe_get a k))
  done;
  ia

let value_array_of ~len a =
  let v = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout len in
  for k = 0 to len - 1 do
    Bigarray.Array1.unsafe_set v k (Array.unsafe_get a k)
  done;
  v

(* Two-pass counting sort by row, then per-row sort by column and
   duplicate merge.  O(nnz log nnz_row); the sort works on scratch
   [int array]/[float array] and the final streams are copied into
   their Bigarray form once. *)
let of_builder (b : Builder.t) =
  let n = b.Builder.len in
  let rows = b.Builder.rows and cols = b.Builder.cols in
  check_col_range ~cols;
  let counts = Array.make (rows + 1) 0 in
  for k = 0 to n - 1 do
    counts.(b.Builder.row.(k) + 1) <- counts.(b.Builder.row.(k) + 1) + 1
  done;
  for i = 1 to rows do
    counts.(i) <- counts.(i) + counts.(i - 1)
  done;
  (* counts.(i) now is the start offset of row i. *)
  let col_tmp = Array.make (max n 1) 0 and val_tmp = Array.make (max n 1) 0. in
  let cursor = Array.copy counts in
  for k = 0 to n - 1 do
    let r = b.Builder.row.(k) in
    let pos = cursor.(r) in
    col_tmp.(pos) <- b.Builder.col.(k);
    val_tmp.(pos) <- b.Builder.value.(k);
    cursor.(r) <- pos + 1
  done;
  (* Sort each row segment by column index (insertion sort: rows are
     short in all our generators) and merge duplicates in place. *)
  let row_ptr = Array.make (rows + 1) 0 in
  let write = ref 0 in
  for i = 0 to rows - 1 do
    row_ptr.(i) <- !write;
    let lo = counts.(i) and hi = cursor.(i) in
    for k = lo + 1 to hi - 1 do
      let c = col_tmp.(k) and v = val_tmp.(k) in
      let j = ref (k - 1) in
      while !j >= lo && col_tmp.(!j) > c do
        col_tmp.(!j + 1) <- col_tmp.(!j);
        val_tmp.(!j + 1) <- val_tmp.(!j);
        decr j
      done;
      col_tmp.(!j + 1) <- c;
      val_tmp.(!j + 1) <- v
    done;
    let k = ref lo in
    while !k < hi do
      let c = col_tmp.(!k) in
      let acc = ref 0. in
      while !k < hi && col_tmp.(!k) = c do
        acc := !acc +. val_tmp.(!k);
        incr k
      done;
      if !acc <> 0. then begin
        col_tmp.(!write) <- c;
        val_tmp.(!write) <- !acc;
        incr write
      end
    done
  done;
  row_ptr.(rows) <- !write;
  {
    rows;
    cols;
    row_ptr;
    col_idx = index_array_of ~len:!write col_tmp;
    values = value_array_of ~len:!write val_tmp;
  }

(* Dense rows are already in row-major order with ascending, duplicate
   free columns, so CSR can be written directly in two passes — no need
   to funnel rows*cols elements through [Builder.add]'s per-element
   bounds check and [of_builder]'s sort. *)
let of_dense d =
  let rows = Dense.rows d and cols = Dense.cols d in
  check_col_range ~cols;
  let row_ptr = Array.make (rows + 1) 0 in
  let count = ref 0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if Dense.get d i j <> 0. then incr count
    done;
    row_ptr.(i + 1) <- !count
  done;
  let col_idx = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout !count in
  let values = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout !count in
  let write = ref 0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let v = Dense.get d i j in
      if v <> 0. then begin
        Bigarray.Array1.unsafe_set col_idx !write (Int32.of_int j);
        Bigarray.Array1.unsafe_set values !write v;
        incr write
      end
    done
  done;
  { rows; cols; row_ptr; col_idx; values }

let col_at t k = Int32.to_int (Bigarray.Array1.get t.col_idx k)
let value_at t k = Bigarray.Array1.get t.values k

let to_dense t =
  let d = Dense.create ~rows:t.rows ~cols:t.cols in
  for i = 0 to t.rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      let j = col_at t k in
      Dense.set d i j (Dense.get d i j +. value_at t k)
    done
  done;
  d

let nnz t = Bigarray.Array1.dim t.values

let range_nnz t ~lo ~hi =
  if lo < 0 || hi > t.rows || lo > hi then
    invalid_arg "Sparse.range_nnz: row range";
  t.row_ptr.(hi) - t.row_ptr.(lo)

let get t i j =
  if i < 0 || i >= t.rows || j < 0 || j >= t.cols then
    invalid_arg "Sparse.get: index out of bounds";
  let lo = ref t.row_ptr.(i) and hi = ref (t.row_ptr.(i + 1) - 1) in
  let result = ref 0. in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = col_at t mid in
    if c = j then begin
      result := value_at t mid;
      lo := !hi + 1
    end
    else if c < j then lo := mid + 1
    else hi := mid - 1
  done;
  !result

(* The kernels below drop per-element bounds checks after one up-front
   dimension check.  This is sound because [t] is private and every
   constructor ([of_builder], [of_dense], [transpose]) establishes the
   CSR invariants: [row_ptr] has length [rows + 1], is non-decreasing
   with [row_ptr.(rows) = nnz], and every [col_idx] entry lies in
   [0, cols). *)

(* Row [i] of [t x]: its terms summed in CSR order from [+0.].  Inlined
   into each kernel below, so the sum never leaves a register. *)
let[@inline] row_dot row_ptr (col_idx : index_array) (values : value_array)
    (x : float array) i =
  let k0 = Array.unsafe_get row_ptr i
  and k1 = Array.unsafe_get row_ptr (i + 1) in
  let acc = ref 0. in
  for k = k0 to k1 - 1 do
    acc :=
      !acc
      +. Bigarray.Array1.unsafe_get values k
         *. Array.unsafe_get x
              (Int32.to_int (Bigarray.Array1.unsafe_get col_idx k))
  done;
  !acc

let check_rows where t (x : float array) ~(dst : float array) ~lo ~hi =
  if lo < 0 || hi > t.rows || lo > hi then invalid_arg (where ^ ": row range");
  if Array.length x <> t.cols then invalid_arg (where ^ ": dimensions");
  if Array.length dst <> t.rows then
    invalid_arg (where ^ ": destination dimension")

(* [dst.(i) <- (t x).(i)] for [i] in [lo, hi) only.  The gather form of
   the product: each output entry is owned by exactly one row, and its
   terms are summed in CSR order, so covering any subset of [0, rows)
   with disjoint ranges — in any order, on any domains — yields the
   same bits for every covered entry as one sequential pass.  This is
   the parallel uniformisation kernel.  Every load and store is a
   primitive on concretely typed data (float64/int32 Bigarray streams,
   [float array] src and dst), so the loop boxes nothing and allocates
   no words whatever the build's inlining settings. *)
let matvec_rows t (x : float array) ~(dst : float array) ~lo ~hi =
  check_rows "Sparse.matvec_rows" t x ~dst ~lo ~hi;
  let row_ptr = t.row_ptr and col_idx = t.col_idx and values = t.values in
  for i = lo to hi - 1 do
    Array.unsafe_set dst i (row_dot row_ptr col_idx values x i)
  done

(* [matvec_rows] that also sums the magnitudes it writes, tile by tile,
   each ascending from [+0.], in the same pass: the inline product of
   the uniformisation sweep, whose pruner and mass guard read the
   sums instead of scanning the iterate again. *)
let matvec_tiles t (x : float array) ~(dst : float array)
    ~(sums : float array) ~at ~tile ~lo ~hi =
  check_rows "Sparse.matvec_tiles" t x ~dst ~lo ~hi;
  if tile < 1 then invalid_arg "Sparse.matvec_tiles: need tile >= 1";
  let row_ptr = t.row_ptr and col_idx = t.col_idx and values = t.values in
  let j = ref at and r = ref lo in
  while !r < hi do
    let e = if hi - !r > tile then !r + tile else hi in
    let s = ref 0. in
    for i = !r to e - 1 do
      let y = row_dot row_ptr col_idx values x i in
      Array.unsafe_set dst i y;
      s := !s +. Float.abs y
    done;
    sums.(!j) <- !s;
    incr j;
    r := e
  done;
  !j

let matvec t x =
  if Array.length x <> t.cols then invalid_arg "Sparse.matvec: dimensions";
  let y = Array.make t.rows 0. in
  let row_ptr = t.row_ptr and col_idx = t.col_idx and values = t.values in
  for i = 0 to t.rows - 1 do
    let k0 = Array.unsafe_get row_ptr i
    and k1 = Array.unsafe_get row_ptr (i + 1) in
    let acc = ref 0. in
    for k = k0 to k1 - 1 do
      acc :=
        !acc
        +. Bigarray.Array1.unsafe_get values k
           *. Array.unsafe_get x
                (Int32.to_int (Bigarray.Array1.unsafe_get col_idx k))
    done;
    Array.unsafe_set y i !acc
  done;
  y

let vecmat x t =
  if Array.length x <> t.rows then invalid_arg "Sparse.vecmat: dimensions";
  let y = Array.make t.cols 0. in
  let row_ptr = t.row_ptr and col_idx = t.col_idx and values = t.values in
  for i = 0 to t.rows - 1 do
    let xi = Array.unsafe_get x i in
    if xi <> 0. then begin
      let k0 = Array.unsafe_get row_ptr i
      and k1 = Array.unsafe_get row_ptr (i + 1) in
      for k = k0 to k1 - 1 do
        let j = Int32.to_int (Bigarray.Array1.unsafe_get col_idx k) in
        Array.unsafe_set y j
          (Array.unsafe_get y j
          +. (xi *. Bigarray.Array1.unsafe_get values k))
      done
    end
  done;
  y

let vecmat_acc ~src t ~scale ~dst =
  if Array.length src <> t.rows then
    invalid_arg "Sparse.vecmat_acc: source dimension";
  if Array.length dst <> t.cols then
    invalid_arg "Sparse.vecmat_acc: destination dimension";
  let row_ptr = t.row_ptr and col_idx = t.col_idx and values = t.values in
  for i = 0 to t.rows - 1 do
    let xi = Array.unsafe_get src i *. scale in
    if xi <> 0. then begin
      let k0 = Array.unsafe_get row_ptr i
      and k1 = Array.unsafe_get row_ptr (i + 1) in
      for k = k0 to k1 - 1 do
        let j = Int32.to_int (Bigarray.Array1.unsafe_get col_idx k) in
        Array.unsafe_set dst j
          (Array.unsafe_get dst j
          +. (xi *. Bigarray.Array1.unsafe_get values k))
      done
    end
  done

let row_sums t =
  Array.init t.rows (fun i ->
      let acc = ref 0. in
      for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        acc := !acc +. value_at t k
      done;
      !acc)

let scale s t =
  let n = nnz t in
  let values = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  for k = 0 to n - 1 do
    Bigarray.Array1.unsafe_set values k
      (s *. Bigarray.Array1.unsafe_get t.values k)
  done;
  { t with values }

(* Direct CSR-to-CSR transpose by counting sort on the column index:
   one pass to count, one to place.  Walking the source rows in
   ascending order makes each output row's column indices ascending,
   so the result is valid CSR without any per-row sort; no builder, no
   per-element bounds checks. *)
let transpose t =
  let n = nnz t in
  let row_ptr = Array.make (t.cols + 1) 0 in
  for k = 0 to n - 1 do
    let j = Int32.to_int (Bigarray.Array1.unsafe_get t.col_idx k) in
    row_ptr.(j + 1) <- row_ptr.(j + 1) + 1
  done;
  for j = 1 to t.cols do
    row_ptr.(j) <- row_ptr.(j) + row_ptr.(j - 1)
  done;
  let cursor = Array.copy row_ptr in
  let col_idx = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n in
  let values = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  for i = 0 to t.rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      let j = Int32.to_int (Bigarray.Array1.unsafe_get t.col_idx k) in
      let pos = cursor.(j) in
      Bigarray.Array1.unsafe_set col_idx pos (Int32.of_int i);
      Bigarray.Array1.unsafe_set values pos
        (Bigarray.Array1.unsafe_get t.values k);
      cursor.(j) <- pos + 1
    done
  done;
  { rows = t.cols; cols = t.rows; row_ptr; col_idx; values }

(* Split [lo, hi) into exactly [parts] contiguous ranges with roughly
   equal work, where a row's work is its population plus a constant
   (so long runs of empty rows still spread out).  Ranges may be empty
   when a single row outweighs a whole share; together they always
   cover every row of [lo, hi) exactly once — the property the
   deterministic parallel {!matvec_rows} kernel relies on.  The
   optional range is what lets the adaptive-support sweep partition
   just its active window per step. *)
let nnz_balanced_partition ?(lo = 0) ?hi t ~parts =
  let hi = match hi with Some hi -> hi | None -> t.rows in
  if parts < 1 then invalid_arg "Sparse.nnz_balanced_partition: need parts >= 1";
  if lo < 0 || hi > t.rows || lo > hi then
    invalid_arg "Sparse.nnz_balanced_partition: row range";
  let weight i = t.row_ptr.(i + 1) - t.row_ptr.(i) + 1 in
  let total = t.row_ptr.(hi) - t.row_ptr.(lo) + (hi - lo) in
  let bounds = Array.make parts (0, 0) in
  let start = ref lo and acc = ref 0 in
  for p = 0 to parts - 1 do
    let stop =
      if p = parts - 1 then hi
      else begin
        (* Cut where the cumulative weight first reaches the share's
           end point; integer arithmetic keeps the cuts deterministic. *)
        let budget = total * (p + 1) / parts in
        let i = ref !start in
        while !i < hi && !acc + weight !i <= budget do
          acc := !acc + weight !i;
          incr i
        done;
        !i
      end
    in
    bounds.(p) <- (!start, stop);
    start := stop
  done;
  bounds

let iter t f =
  for i = 0 to t.rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      f i (col_at t k) (value_at t k)
    done
  done

let max_abs_diagonal t =
  let best = ref 0. in
  for i = 0 to min t.rows t.cols - 1 do
    best := Float.max !best (Float.abs (get t i i))
  done;
  !best
