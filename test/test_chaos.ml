(* The chaos layer: Fi site-registry semantics, CRC-64 integrity,
   fault-injected Atomic_io, checkpoint-v2 corruption detection and
   quarantine, pool section supervision, the transient-sweep
   escalation ladder, and budget clock skew — the unit-level half of
   what `bench --chaos-report` drives end to end. *)

open Helpers
open Batlife_numerics
open Batlife_ctmc
open Batlife_core

let tmp_path suffix =
  let path = Filename.temp_file "batlife_chaos" suffix in
  Sys.remove path;
  path

let is_parse = function Diag.Parse_error _ -> true | _ -> false
let is_breakdown = function Diag.Numerical_breakdown _ -> true | _ -> false
let is_budget = function Diag.Budget_exhausted _ -> true | _ -> false

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Fi registry semantics                                               *)

let test_fi_window () =
  Fi.reset ();
  let s = Fi.site "test.alpha" in
  check_true "disarmed never fires" (not (Fi.fires s));
  check_true "disabled fast path" (not (Fi.enabled ()));
  Fi.arm ~after:2 ~count:2 "test.alpha";
  check_true "armed enables globally" (Fi.enabled ());
  let observed = ref [] in
  for _ = 1 to 6 do
    observed := Fi.fires s :: !observed
  done;
  check_true "fires exactly on consultations [after, after+count)"
    (List.rev !observed = [ false; false; true; true; false; false ]);
  check_int "hits counted while armed" 6 (Fi.hits "test.alpha");
  check_int "firings counted" 2 (Fi.fired "test.alpha");
  check_true "plan is listed"
    (List.mem ("test.alpha", 2, 2) (Fi.armed ()));
  Fi.reset ();
  check_true "reset disables" (not (Fi.enabled ()));
  check_true "reset disarms" (not (Fi.fires s));
  check_int "reset clears counters" 0 (Fi.hits "test.alpha")

let test_fi_inject () =
  Fi.reset ();
  let s = Fi.site "test.beta" in
  Fi.inject s;
  (* disarmed: no-op *)
  Fi.arm "test.beta";
  (match Fi.inject s with
  | () -> Alcotest.fail "armed inject must raise"
  | exception Fi.Injected name ->
      check_true "exception carries the site name" (name = "test.beta"));
  Fi.reset ();
  check_true "with_sites disarms on exit"
    (try
       Fi.with_sites
         [ ("test.beta", 0, 1) ]
         (fun () -> raise Exit)
     with Exit -> not (Fi.enabled ()))

(* ------------------------------------------------------------------ *)
(* CRC-64                                                              *)

let test_crc64 () =
  (* The CRC-64/XZ check value. *)
  check_true "digest of the standard test vector"
    (Crc64.digest "123456789" = 0x995DC9BBDF1939FAL);
  check_true "streaming update composes"
    (Crc64.update (Crc64.digest "12345") "6789" = Crc64.digest "123456789");
  check_true "empty digest is zero" (Crc64.digest "" = 0L);
  check_true "sensitive to a single bit"
    (Crc64.digest "123456788" <> Crc64.digest "123456789")

(* ------------------------------------------------------------------ *)
(* Atomic_io under injected IO failures                                *)

(* Atomic_io temp files are [.<basename>.<random>.tmp] next to the
   destination; after a failed write none may remain. *)
let no_litter path =
  let dir = Filename.dirname path in
  let prefix = "." ^ Filename.basename path ^ "." in
  Sys.readdir dir |> Array.to_list
  |> List.for_all (fun f ->
         not
           (Filename.check_suffix f ".tmp"
           && String.length f >= String.length prefix
           && String.sub f 0 (String.length prefix) = prefix))

let test_atomic_io_injected_failures () =
  let path = tmp_path ".txt" in
  Atomic_io.write_file ~path "old";
  List.iter
    (fun site ->
      Fi.with_sites
        [ (site, 0, 1) ]
        (fun () ->
          check_raises_diag (site ^ " is a structured parse error") is_parse
            (fun () -> Atomic_io.write_file ~path "new"));
      check_true (site ^ " leaves the destination untouched")
        (read_file path = "old");
      check_true (site ^ " leaves no temp litter") (no_litter path))
    [ "atomic_io.write_fail"; "atomic_io.rename_fail" ];
  (* fsync failures (file or directory) degrade durability, not
     correctness: the write itself must succeed, like the real-error
     path on filesystems without fsync. *)
  List.iter
    (fun site ->
      Fi.with_sites
        [ (site, 0, 1) ]
        (fun () -> Atomic_io.write_file ~path "new");
      check_true (site ^ " still lands the write") (read_file path = "new");
      Atomic_io.write_file ~path "old")
    [ "atomic_io.fsync_fail"; "atomic_io.dir_fsync_fail" ];
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Checkpoint v2: integrity footer, corruption classes, quarantine     *)

let sample_cdf () =
  Checkpoint.Cdf
    {
      Checkpoint.cdf_delta = 50.;
      cdf_accuracy = 1e-7;
      cdf_states = 3;
      cdf_nnz = 4;
      cdf_times = [| 10.; 20. |];
      cdf_progress =
        {
          Batlife_ctmc.Transient.sp_step = 1;
          sp_converged = false;
          sp_vector = [| 0.25; 0.25; 0.5 |];
          sp_values = [| [| 0.; 0.1 |] |];
          sp_skipped = 0.;
        };
    }

let test_checkpoint_torn_write_caught () =
  let path = tmp_path ".ckpt" in
  (* A short write that LANDS (truncation the rename discipline cannot
     prevent) must be caught by the integrity footer on load. *)
  Fi.with_sites
    [ ("atomic_io.short_write", 0, 1) ]
    (fun () -> Checkpoint.save ~path (sample_cdf ()));
  check_raises_diag "torn checkpoint detected" is_parse (fun () ->
      Checkpoint.load ~path);
  Sys.remove path

let test_checkpoint_injected_corruption () =
  let path = tmp_path ".ckpt" in
  List.iter
    (fun site ->
      Checkpoint.save ~path (sample_cdf ());
      Fi.with_sites
        [ (site, 0, 1) ]
        (fun () ->
          check_raises_diag (site ^ " detected on load") is_parse (fun () ->
              Checkpoint.load ~path));
      (* The file on disk was never touched: a clean reload works. *)
      match Checkpoint.load ~path with
      | Checkpoint.Cdf _ -> ()
      | _ -> Alcotest.fail "clean reload returned the wrong kind")
    [ "checkpoint.truncate"; "checkpoint.bitflip"; "checkpoint.version_skew" ];
  Sys.remove path

let test_checkpoint_quarantine () =
  let path = tmp_path ".ckpt" in
  Atomic_io.write_file ~path "complete garbage, no footer";
  let result, events = Diag.capture (fun () -> Checkpoint.load_for_resume ~path) in
  check_true "corrupt file reports a cold start" (result = None);
  check_true "file was quarantined"
    ((not (Sys.file_exists path)) && Sys.file_exists (path ^ ".corrupt"));
  check_true "quarantine is a fallback diagnostic"
    (List.exists
       (fun e -> e.Diag.fallback && e.Diag.origin = "Checkpoint")
       events);
  Sys.remove (path ^ ".corrupt");
  (* A missing file is a caller mistake, not corruption. *)
  check_raises_diag "missing resume file stays a hard error" is_parse
    (fun () -> Checkpoint.load_for_resume ~path)

let test_checkpoint_content_validation () =
  let path = tmp_path ".ckpt" in
  let mc rng died =
    Checkpoint.Montecarlo
      {
        Checkpoint.mc_seed = 7L;
        mc_target = 10;
        mc_done = 5;
        mc_censored = 0;
        mc_died = died;
        mc_rng = rng;
      }
  in
  Checkpoint.save ~path (mc [| 1L; 2L; 3L |] [ 1.5 ]);
  check_raises_diag "3-word rng state rejected" is_parse (fun () ->
      Checkpoint.load ~path);
  Checkpoint.save ~path (mc [| 0L; 0L; 0L; 0L |] [ 1.5 ]);
  check_raises_diag "all-zero rng state rejected" is_parse (fun () ->
      Checkpoint.load ~path);
  Checkpoint.save ~path (mc [| 1L; 2L; 3L; 4L |] [ Float.nan ]);
  check_raises_diag "non-finite lifetime rejected" is_parse (fun () ->
      Checkpoint.load ~path);
  Checkpoint.save ~path (mc [| 1L; 2L; 3L; 4L |] [ 1.5 ]);
  (match Checkpoint.load ~path with
  | Checkpoint.Montecarlo m ->
      check_true "valid payload still loads" (m.Checkpoint.mc_done = 5)
  | _ -> Alcotest.fail "wrong kind back");
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Corrupt-resume: quarantine then cold start, bitwise clean result    *)

let small_times = [| 4000.; 8000. |]

let bits (c : Lifetime.curve) =
  Array.map Int64.bits_of_float c.Lifetime.probabilities

let test_corrupt_resume_cold_start () =
  let model = fig7_model () in
  let clean = Lifetime.cdf ~delta:100. ~times:small_times model in
  let path = tmp_path ".ckpt" in
  Atomic_io.write_file ~path "{\"schema\":\"batlife.ckpt/3\",\"kind\":ga";
  let resumed, events =
    Diag.capture (fun () ->
        Lifetime.cdf_resumable ~resume:path ~delta:100. ~times:small_times
          model)
  in
  check_true "cold start reproduces the clean curve bitwise"
    (bits resumed = bits clean);
  check_true "quarantine event recorded"
    (List.exists (fun e -> e.Diag.origin = "Checkpoint" && e.Diag.fallback)
       events);
  check_true "corrupt file set aside" (Sys.file_exists (path ^ ".corrupt"));
  Sys.remove (path ^ ".corrupt")

(* ------------------------------------------------------------------ *)
(* Pool supervision                                                    *)

let c_supervised = Telemetry.counter "pool.supervised_retries"

let supervision_at_jobs jobs =
  let pool = Pool.get ~jobs in
  let n = 64 in
  let chunks = [| 0; 16; 16; 32; 32; 48; 48; 64 |] in
  let reference = Array.init n (fun i -> float_of_int (i * i)) in
  let dst = Array.make n 0. in
  let fill ~lo ~hi =
    for i = lo to hi - 1 do
      dst.(i) <- float_of_int (i * i)
    done
  in
  Pool.set_section_retries 2;
  Fun.protect
    ~finally:(fun () -> Pool.set_section_retries 0)
    (fun () ->
      let before = Telemetry.value c_supervised in
      let (), events =
        Diag.capture (fun () ->
            (* after:0 so the plan bites at every job count — a
               sequential pool runs the whole section as one share and
               consults the site just once per (re)execution. *)
            Fi.with_sites
              [ ("pool.crash", 0, 2) ]
              (fun () ->
                Pool.run_chunks ~supervise:true pool chunks ~count:4 fill))
      in
      check_true
        (Printf.sprintf "jobs=%d: retried result is bitwise identical" jobs)
        (dst = reference);
      check_int
        (Printf.sprintf "jobs=%d: retries counted" jobs)
        2
        (Telemetry.value c_supervised - before);
      check_int
        (Printf.sprintf "jobs=%d: exactly one supervision note" jobs)
        1
        (List.length
           (List.filter
              (fun e -> e.Diag.origin = "Pool" && e.Diag.fallback)
              events)))

let test_pool_supervision () = List.iter supervision_at_jobs [ 1; 2; 4 ]

let test_pool_supervision_exhausted () =
  let pool = Pool.get ~jobs:2 in
  let dst = Array.make 8 0. in
  Pool.set_section_retries 1;
  Fun.protect
    ~finally:(fun () -> Pool.set_section_retries 0)
    (fun () ->
      match
        Fi.with_sites
          [ ("pool.crash", 0, 50) ]
          (fun () ->
            Pool.run_chunks ~supervise:true pool
              [| 0; 4; 4; 8 |]
              ~count:2
              (fun ~lo ~hi ->
                for i = lo to hi - 1 do
                  dst.(i) <- 1.
                done))
      with
      | () -> Alcotest.fail "persistent crash must propagate"
      | exception Fi.Injected _ -> ())

let test_pool_supervision_never_retries_cancelled () =
  let pool = Pool.get ~jobs:1 in
  Pool.set_section_retries 5;
  Fun.protect
    ~finally:(fun () -> Pool.set_section_retries 0)
    (fun () ->
      let result, events =
        Diag.capture (fun () ->
            match
              Pool.run ~supervise:true pool (fun _ ->
                  Diag.fail
                    (Diag.Cancelled { what = "test"; progress = "none" }))
            with
            | () -> `Completed
            | exception Diag.Error (Diag.Cancelled _) -> `Cancelled)
      in
      check_true "cancellation propagates unretried" (result = `Cancelled);
      check_int "no supervision note for cancellation" 0
        (List.length (List.filter (fun e -> e.Diag.fallback) events)))

(* ------------------------------------------------------------------ *)
(* Transient kernel injection and the escalation ladder                *)

let verify_events events =
  List.filter
    (fun e -> e.Diag.origin = "Lifetime.verify" && e.Diag.fallback)
    events

let test_kernel_injection_recovers_bitwise () =
  let model = fig7_model () in
  let clean = Lifetime.cdf ~delta:100. ~times:small_times model in
  List.iter
    (fun site ->
      let curve, events =
        Diag.capture (fun () ->
            Fi.with_sites
              [ (site, 3, 1) ]
              (fun () -> Lifetime.cdf ~delta:100. ~times:small_times model))
      in
      check_true (site ^ ": rung-1 recovery is bitwise identical")
        (bits curve = bits clean);
      check_int (site ^ ": one escalation note") 1
        (List.length (verify_events events)))
    [ "transient.step_nan"; "transient.step_overflow" ]

(* The same supervision inside a sweep: every product consults
   [pool.crash] once per share, whether it runs inline or dispatched,
   so a crash plan lands mid-sweep at every job count and the retried
   products leave the curve bitwise clean. *)
let test_pool_crash_inside_sweep () =
  let model = fig7_model () in
  let clean = Lifetime.cdf ~delta:100. ~times:small_times model in
  Pool.set_section_retries 2;
  Fun.protect
    ~finally:(fun () -> Pool.set_section_retries 0)
    (fun () ->
      let before = Telemetry.value c_supervised in
      let curve =
        Fi.with_sites
          [ ("pool.crash", 40, 2) ]
          (fun () -> Lifetime.cdf ~delta:100. ~times:small_times model)
      in
      check_true "crashed products retried inside the sweep"
        (Telemetry.value c_supervised - before > 0);
      check_true "sweep with retried products is bitwise clean"
        (bits curve = bits clean))

let test_kernel_injection_rung2_close () =
  let model = fig7_model () in
  let clean = Lifetime.cdf ~delta:100. ~times:small_times model in
  (* Two firings: the first attempt and the bitwise-preserving oracle
     rung both fail, the tightened-accuracy rung recovers.  Its curve
     may legitimately differ in the last ulps — only closeness is
     guaranteed. *)
  let curve, events =
    Diag.capture (fun () ->
        Fi.with_sites
          [ ("transient.step_nan", 3, 2) ]
          (fun () -> Lifetime.cdf ~delta:100. ~times:small_times model))
  in
  Array.iteri
    (fun i p ->
      check_float ~eps:1e-9
        (Printf.sprintf "rung-2 point %d close to clean" i)
        clean.Lifetime.probabilities.(i)
        p)
    curve.Lifetime.probabilities;
  check_int "two escalation notes" 2 (List.length (verify_events events))

let test_kernel_injection_persistent_fails_structured () =
  let model = fig7_model () in
  check_raises_diag "persistent NaN injection is a structured breakdown"
    is_breakdown (fun () ->
      Fi.with_sites
        [ ("transient.step_nan", 0, 1_000_000) ]
        (fun () -> Lifetime.cdf ~delta:100. ~times:small_times model))

let test_sweep_stats_expose_audit () =
  let model = fig7_model () in
  let d = Discretized.build ~delta:100. model in
  let g = d.Discretized.generator in
  let alpha = d.Discretized.alpha in
  let _, stats =
    Transient.measure_sweep g ~alpha ~times:small_times
      ~measure:(total_mass (Discretized.n_states d))
  in
  check_true "mass residual audited and small"
    (stats.Transient.mass_residual >= 0.
    && stats.Transient.mass_residual <= 1e-6);
  check_true "Fox-Glynn defect audited against accuracy"
    (stats.Transient.fg_defect >= 0. && stats.Transient.fg_defect <= 1e-12)

(* ------------------------------------------------------------------ *)
(* Budget clock skew                                                   *)

let test_budget_clock_skew () =
  (* Only deadline-carrying budgets consult the site. *)
  let unbounded = Budget.create () in
  Fi.with_sites
    [ ("budget.clock_skew", 0, 10) ]
    (fun () ->
      Budget.check ~what:"t" unbounded;
      let b = Budget.create ~wall_s:1e6 () in
      check_raises_diag "skewed clock exhausts the deadline" is_budget
        (fun () -> Budget.check ~what:"t" b))

(* ------------------------------------------------------------------ *)
(* Json: finite-float projection (qcheck round-trip)                   *)

let test_json_finite_float_roundtrip =
  qcheck "finite floats round-trip through to_finite_float"
    (float_array_arb 16)
    (fun xs ->
      let j = Json.Arr (Array.to_list (Array.map Json.of_float xs)) in
      let back =
        Json.decode (Json.encode j)
        |> Json.to_list ~field:"xs"
        |> List.map (Json.to_finite_float ~field:"xs")
        |> Array.of_list
      in
      Array.for_all2
        (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
        xs back)

let test_json_finite_float_rejects () =
  List.iter
    (fun x ->
      check_true "to_float accepts non-finite"
        (Json.to_float ~field:"x" (Json.of_float x) = x
        || Float.is_nan (Json.to_float ~field:"x" (Json.of_float x)));
      check_raises_diag "to_finite_float rejects non-finite" is_parse
        (fun () -> Json.to_finite_float ~field:"x" (Json.of_float x)))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let suite =
  [
    case "fi window semantics" test_fi_window;
    case "fi inject & scoped arming" test_fi_inject;
    case "crc64 check vector & streaming" test_crc64;
    case "atomic_io injected failures" test_atomic_io_injected_failures;
    case "checkpoint: torn write caught by footer"
      test_checkpoint_torn_write_caught;
    case "checkpoint: injected corruption classes"
      test_checkpoint_injected_corruption;
    case "checkpoint: quarantine on resume" test_checkpoint_quarantine;
    case "checkpoint: content validation" test_checkpoint_content_validation;
    slow_case "corrupt resume cold-starts bitwise"
      test_corrupt_resume_cold_start;
    case "pool supervision at jobs=1/2/4" test_pool_supervision;
    case "pool supervision: retries exhausted"
      test_pool_supervision_exhausted;
    case "pool supervision: cancellation not retried"
      test_pool_supervision_never_retries_cancelled;
    case "pool supervision inside a sweep" test_pool_crash_inside_sweep;
    slow_case "kernel injection: rung-1 recovery bitwise"
      test_kernel_injection_recovers_bitwise;
    slow_case "kernel injection: rung-2 recovery close"
      test_kernel_injection_rung2_close;
    slow_case "kernel injection: persistent fault fails structured"
      test_kernel_injection_persistent_fails_structured;
    case "sweep stats expose the a-posteriori audit"
      test_sweep_stats_expose_audit;
    case "budget clock skew" test_budget_clock_skew;
    test_json_finite_float_roundtrip;
    case "to_finite_float rejects non-finite" test_json_finite_float_rejects;
  ]
