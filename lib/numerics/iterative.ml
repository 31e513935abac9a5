type result = { solution : float array; iterations : int; residual : float }

exception Did_not_converge of result

let c_solves = Telemetry.counter "iterative.solves"
let c_fallbacks = Telemetry.counter "iterative.fallbacks"

let h_iterations = Telemetry.histogram ~lo:1. ~hi:1e6 "iterative.iterations"

let check_square (a : Sparse.t) b =
  if a.Sparse.rows <> a.Sparse.cols then
    invalid_arg "Iterative: matrix not square";
  if Array.length b <> a.Sparse.rows then
    invalid_arg "Iterative: right-hand side length"

let diagonal (a : Sparse.t) =
  let d = Array.make a.Sparse.rows 0. in
  Sparse.iter a (fun i j v -> if i = j then d.(i) <- d.(i) +. v);
  d

let residual_norm ?(skip = fun _ -> false) (a : Sparse.t) x b =
  let r = Sparse.matvec a x in
  let worst = ref 0. in
  Array.iteri
    (fun i ri ->
      if not (skip i) then worst := Float.max !worst (Float.abs (ri -. b.(i))))
    r;
  !worst

let scale_of b = Float.max 1. (Vector.norm_inf b)

(* A NaN residual means the iteration is polluted beyond recovery;
   spinning to the budget would only report a misleading
   non-convergence. *)
let check_residual ~where ~iter res =
  if Float.is_nan res then
    Diag.breakdown ~where "residual became NaN at iteration %d" iter

let jacobi ?(tol = 1e-10) ?(max_iter = 100_000) ?x0 ?(skip = fun _ -> false) a
    ~b =
  Telemetry.with_span "iterative.jacobi" @@ fun () ->
  check_square a b;
  let n = a.Sparse.rows in
  let d = diagonal a in
  Array.iteri
    (fun i di ->
      if di = 0. && not (skip i) then
        invalid_arg (Printf.sprintf "Iterative.jacobi: zero diagonal at %d" i))
    d;
  let x = match x0 with Some x -> Array.copy x | None -> Array.make n 0. in
  let x' = Array.make n 0. in
  let threshold = tol *. scale_of b in
  let budget = Budget.ambient () in
  let rec loop x x' iter =
    Budget.note_product budget;
    Budget.check ~what:"Iterative.jacobi" budget;
    (* x'_i = (b_i - sum_{j<>i} a_ij x_j) / a_ii *)
    Array.blit b 0 x' 0 n;
    Sparse.iter a (fun i j v -> if i <> j then x'.(i) <- x'.(i) -. (v *. x.(j)));
    for i = 0 to n - 1 do
      if skip i then x'.(i) <- x.(i) else x'.(i) <- x'.(i) /. d.(i)
    done;
    let res = residual_norm ~skip a x' b in
    check_residual ~where:"Iterative.jacobi" ~iter res;
    if res <= threshold then { solution = Array.copy x'; iterations = iter;
                               residual = res }
    else if iter >= max_iter then
      raise
        (Did_not_converge
           { solution = Array.copy x'; iterations = iter; residual = res })
    else loop x' x (iter + 1)
  in
  let r = loop x x' 1 in
  Telemetry.incr c_solves;
  Telemetry.observe_int h_iterations r.iterations;
  r

let gauss_seidel ?(tol = 1e-10) ?(max_iter = 100_000) ?x0
    ?(skip = fun _ -> false) (a : Sparse.t) ~b =
  Telemetry.with_span "iterative.gauss_seidel" @@ fun () ->
  check_square a b;
  let n = a.Sparse.rows in
  let x = match x0 with Some x -> Array.copy x | None -> Array.make n 0. in
  let row_ptr = a.Sparse.row_ptr
  and col_idx = a.Sparse.col_idx
  and values = a.Sparse.values in
  let threshold = tol *. scale_of b in
  let sweep () =
    for i = 0 to n - 1 do
      if not (skip i) then begin
        let acc = ref b.(i) and diag = ref 0. in
        for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
          let j = Int32.to_int (Bigarray.Array1.get col_idx k) in
          let v = Bigarray.Array1.get values k in
          if j = i then diag := !diag +. v
          else acc := !acc -. (v *. x.(j))
        done;
        if !diag = 0. then
          invalid_arg
            (Printf.sprintf "Iterative.gauss_seidel: zero diagonal at %d" i);
        x.(i) <- !acc /. !diag
      end
    done
  in
  let budget = Budget.ambient () in
  let rec loop iter =
    Budget.note_product budget;
    Budget.check ~what:"Iterative.gauss_seidel" budget;
    sweep ();
    (* Residual restricted to the non-skipped rows. *)
    let res = residual_norm ~skip a x b in
    check_residual ~where:"Iterative.gauss_seidel" ~iter res;
    if res <= threshold then
      { solution = Array.copy x; iterations = iter; residual = res }
    else if iter >= max_iter then
      raise
        (Did_not_converge
           { solution = Array.copy x; iterations = iter; residual = res })
    else loop (iter + 1)
  in
  let r = loop 1 in
  Telemetry.incr c_solves;
  Telemetry.observe_int h_iterations r.iterations;
  r

type path = Primary | Fallback

type robust = { result : result; solver : string; path : path }

let finite_solution r = Array.for_all Float.is_finite r.solution

let solve_robust ?(tol = 1e-10) ?(max_iter = 100_000) ?(fallback_factor = 10)
    ?x0 ?skip a ~b =
  match gauss_seidel ~tol ~max_iter ?x0 ?skip a ~b with
  | r -> { result = r; solver = "gauss-seidel"; path = Primary }
  | exception Did_not_converge primary -> (
      Telemetry.incr c_fallbacks;
      Diag.record ~fallback:true ~origin:"Iterative.solve_robust"
        (Printf.sprintf
           "gauss-seidel stalled after %d sweeps (residual %g); falling back \
            to jacobi with a %dx budget"
           primary.iterations primary.residual fallback_factor);
      (* Warm-start the fallback from the stalled iterate when it is
         still finite; otherwise restart from the caller's guess. *)
      let x0 = if finite_solution primary then Some primary.solution else x0 in
      let budget = max_iter * fallback_factor in
      match jacobi ~tol ~max_iter:budget ?x0 ?skip a ~b with
      | r -> { result = r; solver = "jacobi"; path = Fallback }
      | exception Did_not_converge secondary ->
          Diag.fail
            (Diag.Nonconvergence
               {
                 algorithm = "Iterative.solve_robust";
                 iterations = primary.iterations + secondary.iterations;
                 residual = Float.min primary.residual secondary.residual;
                 tolerance = tol;
                 attempted = [ "gauss-seidel"; "jacobi" ];
               }))
