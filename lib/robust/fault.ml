module Generator = Batlife_ctmc.Generator
module Fi = Batlife_numerics.Fi

exception Injected = Batlife_numerics.Fi.Injected

let corrupt_row_sum g ~row ~amount =
  let m = Generator.matrix g in
  if row < 0 || row >= m.Batlife_numerics.Sparse.rows then
    invalid_arg "Fault.corrupt_row_sum: row out of range";
  let start = m.Batlife_numerics.Sparse.row_ptr.(row) in
  let stop = m.Batlife_numerics.Sparse.row_ptr.(row + 1) in
  if start = stop then
    invalid_arg
      "Fault.corrupt_row_sum: row has no stored entries (absorbing rows are \
       empty in CSR form)";
  let values = m.Batlife_numerics.Sparse.values in
  Bigarray.Array1.set values start (Bigarray.Array1.get values start +. amount)

let inject_nan (v : Batlife_numerics.Sparse.value_array) ~index =
  if index < 0 || index >= Bigarray.Array1.dim v then
    invalid_arg "Fault.inject_nan: index out of range";
  Bigarray.Array1.set v index Float.nan

let transient ~failures f =
  if failures < 0 then invalid_arg "Fault.transient: negative count";
  let remaining = Atomic.make failures in
  fun x ->
    let rec claim () =
      let n = Atomic.get remaining in
      n > 0 && (Atomic.compare_and_set remaining n (n - 1) || claim ())
    in
    if claim () then
      raise (Injected "injected transient fault")
    else f x

let with_sites plans f =
  Fi.reset ();
  List.iter
    (fun (name, after, count) -> Fi.arm ~after ~count name)
    plans;
  Fun.protect ~finally:Fi.reset f
