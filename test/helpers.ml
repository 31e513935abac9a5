(* Shared assertion helpers for the test suite. *)

let check_float ?(eps = 1e-9) name expected actual =
  Alcotest.(check (float eps)) name expected actual

let check_close ?(rel = 1e-9) name expected actual =
  let eps = rel *. Float.max (Float.abs expected) 1. in
  Alcotest.(check (float eps)) name expected actual

let check_true name condition = Alcotest.(check bool) name true condition

let check_int = Alcotest.(check int)

let check_raises_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let check_raises_diag name classify f =
  match f () with
  | exception Batlife_numerics.Diag.Error e ->
      if not (classify e) then
        Alcotest.failf "%s: wrong error class: %s" name
          (Batlife_numerics.Diag.error_to_string e)
  | _ -> Alcotest.failf "%s: expected Diag.Error" name

let is_invalid_model = function
  | Batlife_numerics.Diag.Invalid_model _ -> true
  | _ -> false

let case name f = Alcotest.test_case name `Quick f

(* Sweep measures: the probability of state [i], and the total mass of
   an [n]-state distribution. *)
let state_mass i = Batlife_ctmc.Transient.Sum { lo = i; hi = i + 1; stride = 1 }

let total_mass n = Batlife_ctmc.Transient.Sum { lo = 0; hi = n; stride = 1 }

let slow_case name f = Alcotest.test_case name `Slow f

(* The paper's on/off workload (1 Hz, K = 1, 0.96 A) on a 7200 As
   battery: the single well of fig. 7 (c = 1, k = 0) and the two wells
   of fig. 2 (c = 0.625, k = 4.5e-5). *)
let onoff_7200 ~c ~k =
  Batlife_core.Kibamrm.create
    ~workload:
      (Batlife_workload.Onoff.model ~frequency:1.0 ~k:1 ~on_current:0.96 ())
    ~battery:(Batlife_battery.Kibam.params ~capacity:7200. ~c ~k)

let fig7_model () = onoff_7200 ~c:1. ~k:0.
let fig2_model () = onoff_7200 ~c:0.625 ~k:4.5e-5

(* Ad-hoc fault injection for tests that hold the object in hand; the
   named sites of [Batlife_numerics.Fi] cover the production paths. *)

(* Add [amount] to the first stored entry of [row] in place, breaking
   the zero-row-sum invariant of a generator.  Absorbing rows are empty
   in CSR form, so they have nothing to perturb. *)
let corrupt_row_sum g ~row ~amount =
  let m = Batlife_ctmc.Generator.matrix g in
  if row < 0 || row >= m.Batlife_numerics.Sparse.rows then
    invalid_arg "corrupt_row_sum: row out of range";
  let start = m.Batlife_numerics.Sparse.row_ptr.(row) in
  if start = m.Batlife_numerics.Sparse.row_ptr.(row + 1) then
    invalid_arg "corrupt_row_sum: row has no stored entries";
  let values = m.Batlife_numerics.Sparse.values in
  Bigarray.Array1.set values start (Bigarray.Array1.get values start +. amount)

(* Overwrite one entry of a matrix's flat [values] stream with NaN. *)
let inject_nan (v : Batlife_numerics.Sparse.value_array) ~index =
  if index < 0 || index >= Bigarray.Array1.dim v then
    invalid_arg "inject_nan: index out of range";
  Bigarray.Array1.set v index Float.nan

(* [transient ~failures f] behaves like [f] except that its first
   [failures] calls, counted process-wide and atomically (pool workers
   share the countdown), raise [Fi.Injected]: a transient environment
   fault for driving Par's retry-with-backoff. *)
let transient ~failures f =
  if failures < 0 then invalid_arg "transient: negative count";
  let remaining = Atomic.make failures in
  fun x ->
    let rec claim () =
      let n = Atomic.get remaining in
      n > 0 && (Atomic.compare_and_set remaining n (n - 1) || claim ())
    in
    if claim () then
      raise (Batlife_numerics.Fi.Injected "injected transient fault")
    else f x

let qcheck ?(count = 200) name arbitrary property =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name arbitrary property)

(* A deterministic float array generator for property tests. *)
let float_array_arb n =
  QCheck.(array_of_size (Gen.return n) (float_range (-100.) 100.))

let pos_float_arb lo hi = QCheck.float_range lo hi
