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

let qcheck ?(count = 200) name arbitrary property =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name arbitrary property)

(* A deterministic float array generator for property tests. *)
let float_array_arb n =
  QCheck.(array_of_size (Gen.return n) (float_range (-100.) 100.))

let pos_float_arb lo hi = QCheck.float_range lo hi
