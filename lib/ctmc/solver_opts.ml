type t = {
  accuracy : float;
  unif_rate : float option;
  convergence_tol : float;
  linear_tol : float option;
  jobs : int option;
  budget : Batlife_numerics.Budget.t option;
  max_retries : int;
  adaptive_support : bool;
  support_threshold : float option;
}

let default =
  { accuracy = 1e-12; unif_rate = None; convergence_tol = 1e-14;
    linear_tol = None; jobs = None; budget = None; max_retries = 0;
    adaptive_support = true; support_threshold = None }

let make ?(accuracy = default.accuracy) ?unif_rate
    ?(convergence_tol = default.convergence_tol) ?linear_tol ?jobs ?budget
    ?(max_retries = default.max_retries)
    ?(adaptive_support = default.adaptive_support) ?support_threshold () =
  (match jobs with
  | Some j when j < 1 -> invalid_arg "Solver_opts.make: need jobs >= 1"
  | _ -> ());
  if max_retries < 0 then invalid_arg "Solver_opts.make: need max_retries >= 0";
  (match support_threshold with
  | Some tau when not (Float.is_finite tau) || tau < 0. ->
      invalid_arg "Solver_opts.make: need a finite support_threshold >= 0"
  | _ -> ());
  { accuracy; unif_rate; convergence_tol; linear_tol; jobs; budget;
    max_retries; adaptive_support; support_threshold }

let linear_tol_or ~default:d t =
  match t.linear_tol with Some tol -> tol | None -> d

let resolve_jobs t =
  match t.jobs with
  | Some j -> j
  | None -> Batlife_numerics.Pool.default_jobs ()

let resolve_budget t =
  match t.budget with
  | Some b -> b
  | None -> Batlife_numerics.Budget.ambient ()

let pp ppf t =
  Format.fprintf ppf
    "{ accuracy = %g; unif_rate = %s; convergence_tol = %g; linear_tol = %s; \
     jobs = %s; budget = %s; max_retries = %d; \
     adaptive_support = %b; support_threshold = %s }"
    t.accuracy
    (match t.unif_rate with Some q -> Printf.sprintf "%g" q | None -> "auto")
    t.convergence_tol
    (match t.linear_tol with
    | Some tol -> Printf.sprintf "%g" tol
    | None -> "solver default")
    (match t.jobs with Some j -> string_of_int j | None -> "auto")
    (match t.budget with
    | Some b when Batlife_numerics.Budget.is_unlimited b -> "unlimited"
    | Some _ -> "explicit"
    | None -> "ambient")
    t.max_retries t.adaptive_support
    (match t.support_threshold with
    | Some tau -> Printf.sprintf "%g" tau
    | None -> "auto")
