open Batlife_numerics
open Helpers

let build_matrix entries ~rows ~cols =
  let b = Sparse.Builder.create ~rows ~cols () in
  List.iter (fun (i, j, v) -> Sparse.Builder.add b i j v) entries;
  Sparse.of_builder b

let test_builder_basics () =
  let b = Sparse.Builder.create ~rows:3 ~cols:3 () in
  Sparse.Builder.add b 0 0 1.;
  Sparse.Builder.add b 0 0 0.;
  (* Zeros ignored. *)
  check_int "nnz skips zero" 1 (Sparse.Builder.nnz b);
  check_int "rows" 3 (Sparse.Builder.rows b);
  check_raises_invalid "out of bounds" (fun () -> Sparse.Builder.add b 3 0 1.)

let test_duplicate_merge () =
  let m = build_matrix [ (1, 2, 1.5); (1, 2, 2.5); (0, 0, 1.) ] ~rows:3 ~cols:3 in
  check_int "nnz merged" 2 (Sparse.nnz m);
  check_float "summed" 4. (Sparse.get m 1 2)

let test_cancellation_dropped () =
  let m = build_matrix [ (0, 1, 2.); (0, 1, -2.) ] ~rows:2 ~cols:2 in
  check_int "exact cancellation removed" 0 (Sparse.nnz m)

let test_get () =
  let m = build_matrix [ (0, 2, 3.); (1, 0, -1.) ] ~rows:2 ~cols:3 in
  check_float "present" 3. (Sparse.get m 0 2);
  check_float "absent" 0. (Sparse.get m 0 1);
  check_raises_invalid "bounds" (fun () -> ignore (Sparse.get m 2 0))

let test_matvec_known () =
  let m = build_matrix [ (0, 0, 1.); (0, 1, 2.); (1, 1, 3.) ] ~rows:2 ~cols:2 in
  let y = Sparse.matvec m [| 1.; 10. |] in
  check_float "row 0" 21. y.(0);
  check_float "row 1" 30. y.(1)

let test_vecmat_known () =
  let m = build_matrix [ (0, 0, 1.); (0, 1, 2.); (1, 1, 3.) ] ~rows:2 ~cols:2 in
  let y = Sparse.vecmat [| 1.; 10. |] m in
  check_float "col 0" 1. y.(0);
  check_float "col 1" 32. y.(1)

let test_vecmat_acc () =
  let m = build_matrix [ (0, 1, 4.) ] ~rows:2 ~cols:2 in
  let dst = [| 1.; 1. |] in
  Sparse.vecmat_acc ~src:[| 2.; 0. |] m ~scale:0.5 ~dst;
  check_float "accumulated" 5. dst.(1);
  check_float "untouched" 1. dst.(0)

let test_row_sums_scale () =
  let m = build_matrix [ (0, 0, 1.); (0, 1, 2.); (1, 0, 5.) ] ~rows:2 ~cols:2 in
  let sums = Sparse.row_sums m in
  check_float "row 0" 3. sums.(0);
  check_float "row 1" 5. sums.(1);
  let doubled = Sparse.scale 2. m in
  check_float "scaled" 4. (Sparse.get doubled 0 1)

let test_transpose () =
  let m = build_matrix [ (0, 1, 2.); (1, 0, 3.) ] ~rows:2 ~cols:2 in
  let t = Sparse.transpose m in
  check_float "transposed 1 0" 2. (Sparse.get t 1 0);
  check_float "transposed 0 1" 3. (Sparse.get t 0 1)

let test_dense_roundtrip () =
  let d = Dense.of_arrays [| [| 1.; 0.; 2. |]; [| 0.; 0.; 3. |] |] in
  let m = Sparse.of_dense d in
  check_int "nnz" 3 (Sparse.nnz m);
  check_true "roundtrip" (Dense.approx_equal (Sparse.to_dense m) d)

let test_max_abs_diagonal () =
  let m =
    build_matrix [ (0, 0, -4.); (1, 1, 2.); (0, 1, 100.) ] ~rows:2 ~cols:2
  in
  check_float "max |diag|" 4. (Sparse.max_abs_diagonal m)

let random_sparse_arb =
  QCheck.(
    list_of_size (Gen.int_range 0 40)
      (triple (int_range 0 5) (int_range 0 5) (float_range (-10.) 10.)))

let prop_matvec_matches_dense =
  qcheck ~count:200 "sparse matvec = dense matvec"
    QCheck.(pair random_sparse_arb (float_array_arb 6))
    (fun (entries, x) ->
      let triples = List.map (fun (i, j, v) -> (i, j, v)) entries in
      let m = build_matrix triples ~rows:6 ~cols:6 in
      let d = Sparse.to_dense m in
      Vector.approx_equal ~tol:1e-9 (Sparse.matvec m x) (Dense.matvec d x))

let prop_vecmat_matches_dense =
  qcheck ~count:200 "sparse vecmat = dense vecmat"
    QCheck.(pair random_sparse_arb (float_array_arb 6))
    (fun (entries, x) ->
      let m = build_matrix entries ~rows:6 ~cols:6 in
      let d = Sparse.to_dense m in
      Vector.approx_equal ~tol:1e-9 (Sparse.vecmat x m) (Dense.vecmat x d))

let prop_transpose_involution =
  qcheck ~count:100 "transpose twice is identity" random_sparse_arb
    (fun entries ->
      let m = build_matrix entries ~rows:6 ~cols:6 in
      let tt = Sparse.transpose (Sparse.transpose m) in
      Dense.approx_equal (Sparse.to_dense m) (Sparse.to_dense tt))

(* The parallel uniformisation kernel rests on this exact identity:
   the gather product over the transpose must reproduce the scatter
   product over the original {e bitwise}, not approximately — the
   transpose lists every column's entries in ascending source-row
   order, which is precisely vecmat's summation order. *)
let prop_transposed_matvec_bitwise =
  qcheck ~count:300 "matvec over transpose = vecmat, bitwise"
    QCheck.(pair random_sparse_arb (float_array_arb 6))
    (fun (entries, x) ->
      let m = build_matrix entries ~rows:6 ~cols:6 in
      let scatter = Sparse.vecmat x m in
      let gather = Sparse.matvec (Sparse.transpose m) x in
      Array.for_all2
        (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
        scatter gather)

let prop_of_dense_matches_builder =
  qcheck ~count:200 "of_dense = builder path" random_sparse_arb
    (fun entries ->
      let via_builder = build_matrix entries ~rows:6 ~cols:6 in
      let d = Dense.create ~rows:6 ~cols:6 in
      List.iter (fun (i, j, v) -> Dense.set d i j (Dense.get d i j +. v)) entries;
      let via_dense = Sparse.of_dense d in
      Sparse.nnz via_builder = Sparse.nnz via_dense
      && Dense.approx_equal ~tol:0.
           (Sparse.to_dense via_builder)
           (Sparse.to_dense via_dense))

let test_matvec_rows_range () =
  let m =
    build_matrix [ (0, 0, 1.); (1, 0, 2.); (2, 1, 3.) ] ~rows:3 ~cols:2
  in
  let dst = [| -1.; -1.; -1. |] in
  Sparse.matvec_rows m [| 10.; 100. |] ~dst ~lo:1 ~hi:2;
  check_float "outside range untouched (before)" (-1.) dst.(0);
  check_float "inside range written" 20. dst.(1);
  check_float "outside range untouched (after)" (-1.) dst.(2);
  check_raises_invalid "bad range" (fun () ->
      Sparse.matvec_rows m [| 1.; 1. |] ~dst ~lo:0 ~hi:4);
  check_raises_invalid "wrong x length" (fun () ->
      Sparse.matvec_rows m [| 1. |] ~dst ~lo:0 ~hi:3);
  (* matvec_tiles writes the same rows and sums their magnitudes per
     tile of the range, into the sums from [at] on. *)
  let m =
    build_matrix
      [ (0, 0, 1.); (1, 0, -2.); (2, 1, 3.); (3, 1, 0.5) ]
      ~rows:4 ~cols:2
  in
  let dst = Array.make 4 (-1.) and sums = Array.make 3 (-1.) in
  let next =
    Sparse.matvec_tiles m [| 10.; 100. |] ~dst ~sums ~at:1 ~tile:2 ~lo:1
      ~hi:4
  in
  check_int "returns at plus the tile count" 3 next;
  check_float "row before the range untouched" (-1.) dst.(0);
  check_float "rows written" (-20.) dst.(1);
  check_float "rows written" 300. dst.(2);
  check_float "rows written" 50. dst.(3);
  check_float "sum before at untouched" (-1.) sums.(0);
  check_float "first tile's magnitude" 320. sums.(1);
  check_float "short last tile's magnitude" 50. sums.(2);
  check_raises_invalid "tile < 1" (fun () ->
      ignore
        (Sparse.matvec_tiles m [| 1.; 1. |] ~dst ~sums ~at:0 ~tile:0 ~lo:0
           ~hi:4));
  check_raises_invalid "sums too short" (fun () ->
      ignore
        (Sparse.matvec_tiles m [| 1.; 1. |] ~dst ~sums ~at:2 ~tile:1 ~lo:0
           ~hi:4))

(* The gather is the inner loop of every sweep.  Each load and store
   must compile to an unboxed primitive, so a call allocates nothing:
   a boxed load or store would cost words per nonzero.  The slack
   covers the probe's own boxed float.  The same holds for the gather
   that sums its tiles' magnitudes. *)
let test_matvec_rows_allocates_nothing () =
  let n = 320 in
  let m =
    build_matrix
      (List.concat
         (List.init n (fun i ->
              [ (i, i, -2.); (i, (i + 1) mod n, 1.5); (i, (i + 7) mod n, 0.5) ])))
      ~rows:n ~cols:n
  in
  let src = Array.init n (fun i -> 1. /. float_of_int (i + 1)) in
  let dst = Array.make n 0. in
  let calls = 20 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    Sparse.matvec_rows m src ~dst ~lo:0 ~hi:n
  done;
  let words = Gc.minor_words () -. before in
  if words > 8. then
    Alcotest.failf "%d matvec_rows calls allocated %.0f minor words" calls words;
  let sums = Array.make n 0. in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sparse.matvec_tiles m src ~dst ~sums ~at:0 ~tile:8 ~lo:0 ~hi:n)
  done;
  let words = Gc.minor_words () -. before in
  if words > 8. then
    Alcotest.failf "%d matvec_tiles calls allocated %.0f minor words" calls
      words

(* Every partition must tile [0, rows) exactly, whatever the shape. *)
let prop_partition_tiles =
  qcheck ~count:200 "nnz partition tiles the rows"
    QCheck.(pair random_sparse_arb (int_range 1 8))
    (fun (entries, parts) ->
      let m = build_matrix entries ~rows:6 ~cols:6 in
      let ranges = Sparse.nnz_balanced_partition m ~parts in
      Array.length ranges = parts
      && Array.for_all (fun (lo, hi) -> lo <= hi) ranges
      && fst ranges.(0) = 0
      && snd ranges.(parts - 1) = 6
      && Array.for_all
           (fun i -> snd ranges.(i) = fst ranges.(i + 1))
           (Array.init (parts - 1) (fun i -> i)))

let suite =
  [
    case "builder basics" test_builder_basics;
    case "duplicates merged" test_duplicate_merge;
    case "cancellation dropped" test_cancellation_dropped;
    case "get" test_get;
    case "matvec" test_matvec_known;
    case "vecmat" test_vecmat_known;
    case "vecmat_acc" test_vecmat_acc;
    case "row sums and scale" test_row_sums_scale;
    case "transpose" test_transpose;
    case "dense roundtrip" test_dense_roundtrip;
    case "max abs diagonal" test_max_abs_diagonal;
    case "matvec_rows range" test_matvec_rows_range;
    case "matvec_rows allocates no minor words" test_matvec_rows_allocates_nothing;
    prop_matvec_matches_dense;
    prop_vecmat_matches_dense;
    prop_transpose_involution;
    prop_transposed_matvec_bitwise;
    prop_of_dense_matches_builder;
    prop_partition_tiles;
  ]
