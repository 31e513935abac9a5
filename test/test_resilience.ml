(* The resilience layer: budgets and cooperative cancellation, exact
   JSON round-trips, atomic writes, checkpoint/resume bitwise identity
   (uniformisation sweeps and Monte-Carlo batches), and Par's
   retry-with-backoff under injected transient faults. *)

open Helpers
open Batlife_numerics
open Batlife_ctmc
open Batlife_core
open Batlife_sim
module Par = Batlife_experiments.Par

let times () = [| 4000.; 8000.; 12000.; 15000.; 17000. |]

let tmp_path suffix =
  let path = Filename.temp_file "batlife_resilience" suffix in
  Sys.remove path;
  path

let is_budget = function Diag.Budget_exhausted _ -> true | _ -> false
let is_cancelled = function Diag.Cancelled _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Budget                                                              *)

let test_budget_counts () =
  let b = Budget.create ~max_products:3 () in
  (* Protocol: note the unit of work, then check.  A budget of 3 lets
     exactly 3 units through and trips on the 4th. *)
  for _ = 1 to 3 do
    Budget.note_product b;
    Budget.check ~what:"test" b
  done;
  Budget.note_product b;
  check_true "4th unit trips" (Budget.peek ~what:"test" b |> Option.is_some);
  check_raises_diag "budget error class" is_budget (fun () ->
      Budget.check ~what:"test" b);
  check_int "products counted" 4 (Budget.products_done b)

let test_budget_cancel () =
  let b = Budget.create () in
  check_true "fresh budget passes" (Budget.peek ~what:"t" b = None);
  Budget.cancel b;
  check_raises_diag "cancel trips Cancelled" is_cancelled (fun () ->
      Budget.check ~what:"t" b);
  (* The deterministic testing knob trips like an async Ctrl-C. *)
  let b2 = Budget.create ~cancel_after:2 () in
  check_true "1st peek passes" (Budget.peek ~what:"t" b2 = None);
  check_true "2nd peek cancels" (Budget.peek ~what:"t" b2 <> None);
  check_true "knob reports cancelled" (Budget.cancelled b2)

let test_budget_unlimited_and_ambient () =
  check_true "unlimited is unlimited" (Budget.is_unlimited Budget.unlimited);
  Budget.note_product Budget.unlimited;
  check_int "unlimited counts nothing" 0
    (Budget.products_done Budget.unlimited);
  let b = Budget.create ~max_sweeps:1 () in
  Budget.with_ambient b (fun () ->
      check_true "ambient swapped in" (Budget.ambient () == b));
  check_true "ambient restored"
    (Budget.is_unlimited (Budget.ambient ()));
  check_raises_invalid "non-positive limit rejected" (fun () ->
      Budget.create ~max_products:0 ())

(* Budgets actually stop the sweeps, and partial progress is named in
   the error. *)
let test_budget_stops_sweep () =
  let model = fig7_model () in
  let b = Budget.create ~max_products:25 () in
  check_raises_diag "sweep stops on budget" is_budget (fun () ->
      Budget.with_ambient b (fun () ->
          ignore (Lifetime.cdf ~delta:100. ~times:(times ()) model)));
  check_int "exactly the budgeted products ran" 26 (Budget.products_done b)

(* ------------------------------------------------------------------ *)
(* Json: exact round-trips                                             *)

let test_json_float_roundtrip () =
  let values =
    [
      0.; -0.; 1.; -1.; 0.1; 1e-300; -1.7976931348623157e308; Float.pi;
      4.9e-324 (* smallest denormal *); 12345.6789012345678;
    ]
  in
  List.iter
    (fun x ->
      let j = Json.encode (Json.of_float x) in
      let back = Json.to_float ~field:"x" (Json.decode j) in
      check_true
        (Printf.sprintf "float %h survives the round-trip" x)
        (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float back)))
    values;
  (* Non-finite values ride along as strings. *)
  List.iter
    (fun x ->
      let back =
        Json.to_float ~field:"x" (Json.decode (Json.encode (Json.of_float x)))
      in
      check_true "non-finite round-trip"
        (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float back)))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_json_int64_and_errors () =
  List.iter
    (fun w ->
      let back =
        Json.to_int64_hex ~field:"w"
          (Json.decode (Json.encode (Json.of_int64_hex w)))
      in
      check_true "int64 hex round-trip" (Int64.equal w back))
    [ 0L; 1L; -1L; Int64.min_int; Int64.max_int; 0x0BA77E7AL ];
  let is_parse = function Diag.Parse_error _ -> true | _ -> false in
  check_raises_diag "garbage is a Parse_error" is_parse (fun () ->
      Json.decode "{\"a\": }");
  check_raises_diag "trailing garbage rejected" is_parse (fun () ->
      Json.decode "1 2");
  check_raises_diag "missing member is structured" is_parse (fun () ->
      Json.member ~field:"missing" (Json.decode "{}"))

(* ------------------------------------------------------------------ *)
(* Atomic_io                                                           *)

let test_atomic_write () =
  let path = tmp_path ".txt" in
  Atomic_io.write_file ~path "first\n";
  (* A writer that dies mid-way must leave the previous content and no
     temp litter. *)
  (try
     Atomic_io.with_out ~path (fun oc ->
         output_string oc "partial";
         failwith "boom")
   with Failure _ -> ());
  let ic = open_in path in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "old content survives a failed rewrite" "first\n"
    content;
  let dir = Filename.dirname path in
  let litter =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           Filename.check_suffix f ".tmp"
           && String.length f > String.length "batlife_resilience"
           && String.sub f 1 (String.length "batlife_resilience")
              = "batlife_resilience")
  in
  check_int "no temp litter" 0 (List.length litter);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Checkpoint round-trips                                              *)

let test_checkpoint_roundtrip () =
  let path = tmp_path ".ckpt" in
  let progress =
    {
      Transient.sp_step = 2;
      sp_converged = false;
      sp_vector = [| 0.125; 0.25; 0.625 |];
      sp_values = [| [| 0.; 0.1; 0.2 |]; [| 1.; 0.9; 0.8 |] |];
      sp_skipped = 0.;
    }
  in
  let cdf =
    {
      Checkpoint.cdf_delta = 50.;
      cdf_accuracy = 1e-7;
      cdf_states = 3;
      cdf_nnz = 4;
      cdf_times = [| 10.; 20. |];
      cdf_progress = progress;
    }
  in
  (match Checkpoint.(save ~path (Cdf cdf); load ~path) with
  | Checkpoint.Cdf c ->
      check_true "cdf fingerprint round-trips"
        (c.Checkpoint.cdf_delta = 50. && c.Checkpoint.cdf_times = [| 10.; 20. |]);
      check_true "sweep progress round-trips bitwise"
        (c.Checkpoint.cdf_progress = progress)
  | _ -> Alcotest.fail "wrong kind back");
  let mc =
    {
      Checkpoint.mc_seed = 0x0BA77E7AL;
      mc_target = 100;
      mc_done = 42;
      mc_censored = 2;
      mc_died = [ 3.5; 2.25; 1.125 ];
      mc_rng = [| 1L; -2L; Int64.min_int; 0x123456789ABCDEF0L |];
    }
  in
  (match Checkpoint.(save ~path (Montecarlo mc); load ~path) with
  | Checkpoint.Montecarlo m ->
      check_true "montecarlo round-trips" (m = mc)
  | _ -> Alcotest.fail "wrong kind back");
  (match
     Checkpoint.(
       save ~path (Experiments { completed = [ "fig2"; "fig7" ] });
       load ~path)
   with
  | Checkpoint.Experiments { completed } ->
      check_true "completion map round-trips" (completed = [ "fig2"; "fig7" ])
  | _ -> Alcotest.fail "wrong kind back");
  Sys.remove path

let test_checkpoint_corruption () =
  let is_parse = function Diag.Parse_error _ -> true | _ -> false in
  let path = tmp_path ".ckpt" in
  Atomic_io.write_file ~path "{\"schema\":\"batlife.ckpt/1\",\"kind\":\"cd";
  check_raises_diag "truncated file is a Parse_error" is_parse (fun () ->
      Checkpoint.load ~path);
  Atomic_io.write_file ~path
    "{\"schema\":\"batlife.ckpt/99\",\"kind\":\"cdf\"}";
  check_raises_diag "wrong schema rejected" is_parse (fun () ->
      Checkpoint.load ~path);
  Atomic_io.write_file ~path "{\"schema\":\"batlife.ckpt/1\",\"kind\":\"x\"}";
  check_raises_diag "unknown kind rejected" is_parse (fun () ->
      Checkpoint.load ~path);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* cdf checkpoint/resume: bitwise identity                             *)

let interrupt_and_resume ~delta model =
  let ts = times () in
  let reference = Lifetime.cdf ~delta ~times:ts model in
  let resumable = Lifetime.cdf_resumable ~delta ~times:ts model in
  check_true "cdf_resumable == cdf bitwise"
    (reference.Lifetime.probabilities = resumable.Lifetime.probabilities
    && reference.Lifetime.iterations = resumable.Lifetime.iterations);
  let path = tmp_path ".ckpt" in
  (* Interrupt mid-sweep: a tight product budget kills the run after
     the checkpoint hook has seen some steps; the final snapshot is
     flushed by on_interrupt. *)
  check_raises_diag "budget interrupts the sweep" is_budget (fun () ->
      Budget.with_ambient
        (Budget.create ~max_products:40 ())
        (fun () ->
          ignore
            (Lifetime.cdf_resumable ~checkpoint:(path, 5) ~delta ~times:ts
               model)));
  check_true "interrupt flushed a checkpoint" (Sys.file_exists path);
  let resumed =
    Lifetime.cdf_resumable ~resume:path ~delta ~times:ts model
  in
  check_true "resumed == uninterrupted bitwise"
    (reference.Lifetime.probabilities = resumed.Lifetime.probabilities);
  check_int "resumed reports the full iteration count"
    reference.Lifetime.iterations resumed.Lifetime.iterations;
  Sys.remove path

let test_cdf_resume_fig7 () = interrupt_and_resume ~delta:100. (fig7_model ())

let test_cdf_resume_fig2_battery () =
  interrupt_and_resume ~delta:100. (fig2_model ())

let test_cdf_resume_fingerprint () =
  let model = fig7_model () in
  let ts = times () in
  let path = tmp_path ".ckpt" in
  check_raises_diag "interrupted run" is_budget (fun () ->
      Budget.with_ambient
        (Budget.create ~max_products:40 ())
        (fun () ->
          ignore
            (Lifetime.cdf_resumable ~checkpoint:(path, 5) ~delta:100.
               ~times:ts model)));
  (* Wrong delta / wrong grid: the fingerprint must reject. *)
  check_raises_diag "wrong delta rejected" is_invalid_model (fun () ->
      Lifetime.cdf_resumable ~resume:path ~delta:50. ~times:ts model);
  check_raises_diag "wrong grid rejected" is_invalid_model (fun () ->
      Lifetime.cdf_resumable ~resume:path ~delta:100. ~times:[| 1.; 2. |]
        model);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Monte-Carlo checkpoint/resume                                       *)

let test_montecarlo_resume () =
  let model = fig7_model () in
  let runs = 120 and horizon = 40000. and seed = 195802L in
  let ref_samples, ref_censored =
    Montecarlo.run_replications ~seed ~runs ~horizon model
  in
  (* Interrupt after 50 replications, round-trip the snapshot through
     an on-disk checkpoint, resume, and demand bitwise identity. *)
  let snap = ref None in
  check_raises_diag "replications interrupted" is_budget (fun () ->
      Budget.with_ambient
        (Budget.create ~max_products:50 ())
        (fun () ->
          ignore
            (Montecarlo.run_replications ~seed
               ~progress:
                 (Progress.make ~on_interrupt:(fun p -> snap := Some p) ())
               ~runs ~horizon model)));
  let p = match !snap with Some p -> p | None -> Alcotest.fail "no snapshot" in
  check_int "snapshot after the budgeted replications" 50
    p.Montecarlo.mp_done;
  let path = tmp_path ".ckpt" in
  Checkpoint.save ~path
    (Checkpoint.Montecarlo
       {
         Checkpoint.mc_seed = seed;
         mc_target = p.Montecarlo.mp_target;
         mc_done = p.Montecarlo.mp_done;
         mc_censored = p.Montecarlo.mp_censored;
         mc_died = p.Montecarlo.mp_died;
         mc_rng = p.Montecarlo.mp_rng;
       });
  let resume =
    match Checkpoint.load ~path with
    | Checkpoint.Montecarlo m ->
        {
          Montecarlo.mp_target = m.Checkpoint.mc_target;
          mp_done = m.Checkpoint.mc_done;
          mp_censored = m.Checkpoint.mc_censored;
          mp_died = m.Checkpoint.mc_died;
          mp_rng = m.Checkpoint.mc_rng;
        }
    | _ -> Alcotest.fail "wrong checkpoint kind"
  in
  let res_samples, res_censored =
    Montecarlo.run_replications ~seed
      ~progress:(Progress.make ~resume ())
      ~runs ~horizon model
  in
  check_true "resumed samples bitwise identical" (ref_samples = res_samples);
  check_int "censored count identical" ref_censored res_censored;
  (* A snapshot for a different target is rejected. *)
  check_raises_diag "wrong target rejected" is_invalid_model (fun () ->
      Montecarlo.run_replications ~seed
        ~progress:(Progress.make ~resume ())
        ~runs:(runs + 1) ~horizon model);
  Sys.remove path

let test_rng_state_roundtrip () =
  let r = Rng.create ~seed:42L () in
  for _ = 1 to 17 do
    ignore (Rng.uniform r)
  done;
  let saved = Rng.state r in
  let clone = Rng.of_state saved in
  for _ = 1 to 100 do
    check_true "restored stream continues identically"
      (Int64.equal (Rng.bits64 r) (Rng.bits64 clone))
  done;
  check_raises_invalid "all-zero state rejected" (fun () ->
      Rng.of_state [| 0L; 0L; 0L; 0L |]);
  check_raises_invalid "wrong length rejected" (fun () ->
      Rng.of_state [| 1L |])

(* ------------------------------------------------------------------ *)
(* Par: retries under injected faults                                  *)

let c_retries = Telemetry.counter "par.retries"

let test_par_retries () =
  let solve delta =
    let curve = Lifetime.cdf ~delta ~times:(times ()) (fig7_model ()) in
    curve.Lifetime.probabilities
  in
  let deltas = [ 100.; 50. ] in
  let reference = Par.map solve deltas in
  List.iter
    (fun jobs ->
      let opts = Solver_opts.make ~jobs ~max_retries:3 () in
      Telemetry.reset_counter c_retries;
      let faulty =
        Par.map ~opts ~backoff_s:1e-6
          (transient ~failures:2 solve)
          deltas
      in
      check_true
        (Printf.sprintf "jobs=%d: faulty run bitwise identical" jobs)
        (faulty = reference);
      check_int
        (Printf.sprintf "jobs=%d: retries counted" jobs)
        2
        (Telemetry.value c_retries))
    [ 1; 2; 4 ];
  (* More failures than retries: the fault escapes. *)
  let opts = Solver_opts.make ~jobs:1 ~max_retries:1 () in
  check_true "unrecoverable fault propagates"
    (match
       Par.map ~opts ~backoff_s:1e-6
         (transient ~failures:5 solve)
         deltas
     with
    | _ -> false
    | exception Fi.Injected _ -> true)

let test_par_never_retries_cancellation () =
  (* A cancelled budget must short-circuit, not burn retries. *)
  let b = Budget.create () in
  Budget.cancel b;
  let opts = Solver_opts.make ~budget:b ~max_retries:5 () in
  Telemetry.reset_counter c_retries;
  check_true "cancellation propagates without retries"
    (match Par.map ~opts (fun x -> x) [ 1; 2 ] with
    | _ -> false
    | exception Diag.Error (Diag.Cancelled _) -> true);
  check_int "no retries burned" 0 (Telemetry.value c_retries)

let test_map_partial_degrades () =
  (* Tasks that trip the budget come back as [Error]; the rest
     survive. *)
  let b = Budget.create ~max_products:1 () in
  let opts = Solver_opts.make ~jobs:1 ~budget:b () in
  let results =
    Par.map_partial ~opts
      (fun x ->
        if x > 1 then begin
          Budget.note_product b;
          Budget.note_product b;
          Budget.check ~what:"task" b
        end;
        x * 10)
      [ 1; 2; 3 ]
  in
  (match results with
  | [ Ok 10; Error e1; Error e2 ] ->
      check_true "dropped tasks carry budget errors"
        (is_budget e1 && is_budget e2)
  | _ -> Alcotest.fail "unexpected map_partial shape");
  check_int "three results, in order" 3 (List.length results)

let suite =
  [
    Alcotest.test_case "budget counts and trips exactly" `Quick
      test_budget_counts;
    Alcotest.test_case "budget cancel & cancel_after knob" `Quick
      test_budget_cancel;
    Alcotest.test_case "unlimited fast path & ambient scoping" `Quick
      test_budget_unlimited_and_ambient;
    Alcotest.test_case "budget stops a uniformisation sweep" `Quick
      test_budget_stops_sweep;
    Alcotest.test_case "json float round-trip is exact" `Quick
      test_json_float_roundtrip;
    Alcotest.test_case "json int64 hex & parse errors" `Quick
      test_json_int64_and_errors;
    Alcotest.test_case "atomic writes survive a failing writer" `Quick
      test_atomic_write;
    Alcotest.test_case "checkpoint payloads round-trip" `Quick
      test_checkpoint_roundtrip;
    Alcotest.test_case "corrupted checkpoints are structured errors" `Quick
      test_checkpoint_corruption;
    Alcotest.test_case "cdf resume bitwise identical (fig 7)" `Quick
      test_cdf_resume_fig7;
    Alcotest.test_case "cdf resume bitwise identical (fig 2 battery)" `Quick
      test_cdf_resume_fig2_battery;
    Alcotest.test_case "cdf resume rejects fingerprint mismatches" `Quick
      test_cdf_resume_fingerprint;
    Alcotest.test_case "monte-carlo mid-batch resume bitwise identical"
      `Quick test_montecarlo_resume;
    Alcotest.test_case "rng state serialise/restore" `Quick
      test_rng_state_roundtrip;
    Alcotest.test_case "par retries injected faults deterministically"
      `Quick test_par_retries;
    Alcotest.test_case "par never retries cancellation" `Quick
      test_par_never_retries_cancellation;
    Alcotest.test_case "map_partial degrades gracefully" `Quick
      test_map_partial_degrades;
  ]
