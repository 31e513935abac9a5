(* Chaos harness: a seeded matrix of fault-injection plans driven
   through whole solver runs, asserting the repo's recovery invariant:

     every run either ends bitwise-identical to the clean run, or in a
     clean structured failure (a [Diag.Error] with its stable exit
     class) — and in both cases leaves no partial or corrupt artifact
     behind.

   Two workload shapes cover the recovery machinery end to end:

   - "resumable": a fig-7 CDF run in two phases — phase A under a
     small budget with periodic checkpoints (interrupted mid-sweep),
     phase B resuming from whatever checkpoint survived.  IO faults
     (Atomic_io sites) hit the saves, corruption faults (Checkpoint
     sites) hit the load, clock skew hits the budget; checkpoint
     quarantine plus the resume guarantee must still deliver the
     clean curve.

   - "escalating": a plain fig-2-battery CDF run whose kernel products
     are sabotaged (NaN / overflow injection) or whose pool workers
     crash mid-section; pool supervision and the sweep-verification
     escalation ladder must recover (count small) or fail structured
     (count huge).

   Randomness enters only here, from one seeded xoshiro generator, so
   any observed outcome replays from its plan id and seed.  The first
   plans deterministically cover every site once; the rest are drawn
   at random.  Written as a committed JSON snapshot (BENCH_chaos.json)
   so CI diffs the outcome matrix. *)

open Batlife_core
open Batlife_experiments
module Diag = Batlife_numerics.Diag
module Fi = Batlife_numerics.Fi
module Rng = Batlife_numerics.Rng
module Npool = Batlife_numerics.Pool
module Budget = Batlife_numerics.Budget
module Solver_opts = Batlife_ctmc.Solver_opts

let times = [| 4000.; 8000.; 12000.; 15000.; 17000. |]
let delta = 100.

let model_fig7 () =
  Params.onoff_kibamrm ~frequency:1.0 (Params.battery_single_well ())

let model_fig2 () =
  Params.onoff_kibamrm ~frequency:1.0 (Params.battery_two_well ())

(* Job count pinned so the committed outcome matrix is independent of
   the machine's core count (results are bitwise identical across job
   counts anyway; this pins consultation schedules). *)
let opts () = Solver_opts.make ~jobs:2 ()

let bits (c : Lifetime.curve) =
  Array.map Int64.bits_of_float c.Lifetime.probabilities

(* ------------------------------------------------------------------ *)
(* The site matrix: (site, workload, after-horizon, eligible counts).
   [after] is drawn below the horizon — sized to the number of
   consultations the workload actually performs (saves for IO sites,
   loads for corruption sites, steps for kernel sites) so plans mostly
   land inside the run.  Kernel counts are 1 (one bad product: the
   escalation ladder must recover, bitwise) or 1000 (persistent fault:
   every rung fails, the first breakdown must surface).  Pool crashes
   stay at <= 2 with a retry allowance of 2, so supervision must
   always recover them. *)

type workload = Resumable | Escalating

let workload_name = function
  | Resumable -> "resumable"
  | Escalating -> "escalating"

let site_matrix =
  [|
    ("atomic_io.write_fail", Resumable, 6, [| 1 |]);
    ("atomic_io.short_write", Resumable, 6, [| 1 |]);
    ("atomic_io.fsync_fail", Resumable, 6, [| 1 |]);
    ("atomic_io.rename_fail", Resumable, 6, [| 1 |]);
    ("atomic_io.dir_fsync_fail", Resumable, 6, [| 1 |]);
    ("checkpoint.truncate", Resumable, 1, [| 1 |]);
    ("checkpoint.bitflip", Resumable, 1, [| 1 |]);
    ("checkpoint.version_skew", Resumable, 1, [| 1 |]);
    ("budget.clock_skew", Resumable, 30, [| 1 |]);
    ("transient.step_nan", Escalating, 200, [| 1; 1000 |]);
    ("transient.step_overflow", Escalating, 200, [| 1; 1000 |]);
    ("pool.crash", Escalating, 100, [| 1; 2 |]);
  |]

type plan = {
  id : int;
  workload : workload;
  site : string;
  after : int;
  count : int;
}

let draw_plan rng id =
  let site, workload, horizon, counts =
    site_matrix.(Rng.int_below rng (Array.length site_matrix))
  in
  let after = if horizon <= 0 then 0 else Rng.int_below rng horizon in
  let count = counts.(Rng.int_below rng (Array.length counts)) in
  { id; workload; site; after; count }

(* Plans 0 .. |matrix|-1 cover every site once with its smallest
   count, so no seed can leave a site untested. *)
let canonical_plan id =
  let site, workload, _, counts = site_matrix.(id) in
  { id; workload; site; after = 0; count = counts.(0) }

(* ------------------------------------------------------------------ *)
(* Workloads.  Each returns the final curve (exceptions classify the
   run); [dir] holds every artifact the run may produce. *)

let run_resumable ~dir () =
  let ckpt = Filename.concat dir "chaos.ckpt" in
  let phase_a_budget =
    (* The clock-skew site is only consulted under a wall deadline;
       give it one too large to expire on its own. *)
    if Fi.armed () |> List.exists (fun (n, _, _) -> n = "budget.clock_skew")
    then Budget.create ~wall_s:1e6 ()
    else Budget.create ~max_products:35 ()
  in
  let phase_a =
    match
      Lifetime.cdf_resumable
        ~opts:(Solver_opts.make ~jobs:2 ~budget:phase_a_budget ())
        ~checkpoint:(ckpt, 7) ~delta ~times (model_fig7 ())
    with
    | curve -> Some curve
    | exception Diag.Error _ ->
        (* Interrupted mid-sweep (budget, or an injected save failure);
           whatever checkpoint survived is what phase B gets. *)
        None
  in
  match phase_a with
  | Some curve -> curve
  | None ->
      if Sys.file_exists ckpt then
        Lifetime.cdf_resumable ~opts:(opts ()) ~resume:ckpt ~delta ~times
          (model_fig7 ())
      else
        Lifetime.cdf_resumable ~opts:(opts ()) ~delta ~times (model_fig7 ())

let run_escalating ~dir:_ () =
  Lifetime.cdf ~opts:(opts ()) ~delta ~times (model_fig2 ())

(* ------------------------------------------------------------------ *)
(* Outcome classification and the artifact scan. *)

let error_class = function
  | Diag.Invalid_model _ -> "invalid_model"
  | Diag.Parse_error _ -> "parse_error"
  | Diag.Nonconvergence _ -> "nonconvergence"
  | Diag.Numerical_breakdown _ -> "numerical_breakdown"
  | Diag.Budget_exhausted _ -> "budget_exhausted"
  | Diag.Cancelled _ -> "cancelled"

let classify ~reference f =
  match f () with
  | curve ->
      if bits curve = reference then ("identical", "")
      else
        ( "violation",
          "run completed but differs bitwise from the clean run" )
  | exception Diag.Error e -> ("structured_failure", error_class e)
  | exception Fi.Injected site ->
      ("violation", "uncaught injected crash escaped from site " ^ site)
  | exception e -> ("violation", "uncaught exception: " ^ Printexc.to_string e)

(* After the plan is disarmed: no temp-file litter, and any checkpoint
   still standing must load cleanly (quarantined [.corrupt] files are
   a legitimate trace of recovery, not litter). *)
let artifact_issues dir =
  let issues = ref [] in
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".tmp" then
        issues := ("temp-file litter: " ^ f) :: !issues)
    (Sys.readdir dir);
  let ckpt = Filename.concat dir "chaos.ckpt" in
  (if Sys.file_exists ckpt then
     match Checkpoint.load ~path:ckpt with
     | (_ : Checkpoint.payload) -> ()
     | exception Diag.Error _ ->
         issues := "unreadable checkpoint left behind" :: !issues);
  List.rev !issues

let clean_dir dir =
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)

let run_plan ~ref_resumable ~ref_escalating plan =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "batlife_chaos_%d_%d" (Unix.getpid ()) plan.id)
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let reference, workload =
    match plan.workload with
    | Resumable -> (ref_resumable, run_resumable ~dir)
    | Escalating -> (ref_escalating, run_escalating ~dir)
  in
  let outcome, detail =
    Batlife_numerics.Fi.with_sites
      [ (plan.site, plan.after, plan.count) ]
      (fun () -> classify ~reference workload)
  in
  let outcome, detail =
    match (outcome, artifact_issues dir) with
    | outcome, [] -> (outcome, detail)
    | _, issues -> ("violation", String.concat "; " issues)
  in
  clean_dir dir;
  (plan, outcome, detail)

let report ~plans:n_plans ~seed ~path =
  (* Supervision allowance for the pool-crash plans (the CLI wires
     --max-retries to the same knob). *)
  Npool.set_section_retries 2;
  Fi.reset ();
  Printf.printf "=== Chaos matrix (%d seeded fault plans, seed %Ld) ===\n"
    n_plans seed;
  let ref_resumable = bits (Lifetime.cdf ~opts:(opts ()) ~delta ~times (model_fig7 ())) in
  let ref_escalating =
    bits (Lifetime.cdf ~opts:(opts ()) ~delta ~times (model_fig2 ()))
  in
  let rng = Rng.create ~seed () in
  let n_canonical = Array.length site_matrix in
  let results =
    List.init n_plans (fun id ->
        let plan =
          if id < n_canonical then canonical_plan id else draw_plan rng id
        in
        let ((_, outcome, detail) as r) =
          run_plan ~ref_resumable ~ref_escalating plan
        in
        Printf.printf "  plan %2d  %-26s after=%-3d count=%-4d %s%s\n" plan.id
          plan.site plan.after plan.count outcome
          (if detail = "" then "" else ": " ^ detail);
        r)
  in
  Fi.reset ();
  Npool.set_section_retries 0;
  let count o =
    List.length (List.filter (fun (_, o', _) -> o' = o) results)
  in
  let identical = count "identical"
  and structured = count "structured_failure"
  and violations = count "violation" in
  Printf.printf
    "  %d identical, %d structured failures, %d violations\n" identical
    structured violations;
  Batlife_numerics.Atomic_io.with_out ~path (fun oc ->
      Printf.fprintf oc
        {|{
  "benchmark": "chaos fault-injection matrix",
  "workloads": {
    "resumable": "fig7 single-well CDF, delta = %g, budgeted+checkpointed phase then resume",
    "escalating": "fig2-battery two-well CDF, delta = %g, plain run"
  },
  "seed": %Ld,
  "plans": %d,
  "summary": {
    "identical": %d,
    "structured_failures": %d,
    "violations": %d
  },
  "runs": [
%s
  ]
}
|}
        delta delta seed n_plans identical structured violations
        (String.concat ",\n"
           (List.map
              (fun (p, outcome, detail) ->
                Printf.sprintf
                  {|    { "id": %d, "workload": "%s", "site": "%s", "after": %d, "count": %d, "outcome": "%s", "detail": "%s" }|}
                  p.id (workload_name p.workload) p.site p.after p.count
                  outcome
                  (String.concat ""
                     (List.map
                        (function
                          | '"' -> "\\\"" | '\\' -> "\\\\"
                          | c -> String.make 1 c)
                        (List.init (String.length detail) (String.get detail)))))
              results)));
  Printf.printf "  wrote %s\n" path;
  if violations > 0 then begin
    prerr_endline "chaos report: recovery invariant violated (see runs above)";
    exit 1
  end
