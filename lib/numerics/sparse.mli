(** Sparse matrices in CSR form, with a COO-style builder.

    The discretised battery generator [Q*] of the paper easily reaches
    millions of nonzeros (Sec. 6.1 quotes 3.2e6 for [Delta = 5]); the
    uniformisation sweep is a long sequence of vector-matrix products
    over this structure, so the representation is kept flat and
    primitive: the value stream is a float64 Bigarray and the column
    stream an int32 Bigarray — contiguous, unboxed, GC-opaque memory
    the gather kernel can stream, at half the index bytes of an
    [int array].  [row_ptr] stays a plain [int array]: rows+1 entries,
    read once per row rather than once per nonzero.  Vectors are plain
    [float array]s throughout. *)

module Builder : sig
  (** Mutable triplet accumulator.  Duplicate entries are summed when
      the CSR form is built. *)

  type t

  val create : ?initial_capacity:int -> rows:int -> cols:int -> unit -> t

  val add : t -> int -> int -> float -> unit
  (** [add b i j v] records [v] at position [(i, j)].  Zero values are
      ignored; indices are bounds-checked. *)

  val nnz : t -> int
  (** Number of recorded triplets (before duplicate merging). *)

  val rows : t -> int

  val cols : t -> int

  val iter : t -> (int -> int -> float -> unit) -> unit
  (** Iterate recorded triplets in insertion order (duplicates not yet
      merged). *)
end

type index_array =
  (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type value_array =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = private {
  rows : int;
  cols : int;
  row_ptr : int array;  (** length [rows + 1] *)
  col_idx : index_array;  (** int32 column stream, length [nnz] *)
  values : value_array;  (** float64 value stream, length [nnz] *)
}

val of_builder : Builder.t -> t
(** Sort triplets, merge duplicates, produce CSR. *)

val of_dense : Dense.t -> t
(** Direct two-pass CSR construction (no builder, no per-element
    bounds checks); zero entries are dropped. *)

val to_dense : t -> Dense.t

val nnz : t -> int

val range_nnz : t -> lo:int -> hi:int -> int
(** Stored entries in rows [\[lo, hi)] — the work a window-restricted
    {!matvec_rows} pass touches. *)

val get : t -> int -> int -> float
(** Logarithmic in the row population. *)

val matvec : t -> float array -> float array
(** [matvec a x = A x]. *)

val matvec_rows : t -> float array -> dst:float array -> lo:int -> hi:int -> unit
(** [matvec_rows a x ~dst ~lo ~hi] writes [(A x).(i)] into [dst.(i)]
    for [i] in [\[lo, hi)] only, leaving the rest of [dst] untouched.
    The gather form of the product: each output entry is owned by one
    row and its terms are summed in CSR order, so covering a row range
    with disjoint subranges — sequentially or on concurrent domains —
    produces results bitwise identical to a single pass over the same
    range.  This is the parallel uniformisation kernel; partition rows
    with {!nnz_balanced_partition} and dispatch with
    [Pool.run_chunks].  The inner loop streams unboxed float64 values
    and int32 indices and allocates nothing.  Dimensions and the range
    are checked once per call; the inner loop is unchecked. *)

val matvec_tiles :
  t ->
  float array ->
  dst:float array ->
  sums:float array ->
  at:int ->
  tile:int ->
  lo:int ->
  hi:int ->
  int
(** [matvec_tiles a x ~dst ~sums ~at ~tile ~lo ~hi] is
    [matvec_rows a x ~dst ~lo ~hi], bitwise, and in the same pass sums
    the magnitudes it writes, tile by tile: [\[lo, hi)] splits into
    consecutive tiles of [tile] rows from [lo] (the last may be
    shorter), and the ascending sum from [+0.] of [|dst.(i)|] over the
    [j]-th of them goes to [sums.(at + j)].  Returns [at] plus the
    number of tiles.  Allocates nothing.  Raises [Invalid_argument] as
    {!matvec_rows} does, when [tile < 1], or when [sums] is too short. *)

val vecmat : float array -> t -> float array
(** [vecmat x a = x^T A]. *)

val vecmat_acc : src:float array -> t -> scale:float -> dst:float array -> unit
(** [vecmat_acc ~src a ~scale ~dst] performs
    [dst <- dst + scale * (src^T A)] without allocating; the
    sequential scatter kernel of uniformisation (column-indexed
    accumulation — not safely row-partitionable, which is why the
    parallel path uses {!matvec_rows} over the {!transpose}). *)

val nnz_balanced_partition :
  ?lo:int -> ?hi:int -> t -> parts:int -> (int * int) array
(** [nnz_balanced_partition a ~parts] splits the row range [\[lo, hi)]
    (default [\[0, rows)]) into exactly [parts] contiguous [(lo, hi)]
    ranges of roughly equal work (row population plus a constant per
    row).  Ranges may be empty; they always cover each row of the
    range exactly once.  The cut points are a deterministic function
    of the matrix, the range and [parts].  The optional range is what
    lets the adaptive-support sweep partition just its active window
    each step. *)

val row_sums : t -> float array

val scale : float -> t -> t

val transpose : t -> t
(** Direct CSR-to-CSR counting-sort transpose, O(nnz + rows + cols).
    Row [j] of the result lists the column-[j] entries of [a] in
    ascending source-row order — the summation order that makes
    [matvec (transpose a) x] bitwise identical to [vecmat x a]. *)

val iter : t -> (int -> int -> float -> unit) -> unit
(** Iterate entries in row-major order. *)

val max_abs_diagonal : t -> float
(** Largest [|a_ii|]; the uniformisation rate of a generator. *)
