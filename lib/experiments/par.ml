open Batlife_numerics
open Batlife_ctmc

(* Deterministic parallel fan-out for the experiments.

   Independent figure curves (one per refinement delta) are whole
   solves with no shared state, so they map across the process pool.
   Two things must stay deterministic regardless of domain scheduling:

   - results: [Pool.map_array] already preserves input order;
   - diagnostics: each task runs under [Diag.capture] and
     [Telemetry.capture] on its own domain, and both buffers are
     replayed in input order afterwards, so the merged event stream
     and the merged span stream are exactly the sequential ones.

   Printing from inside [f] would interleave arbitrarily; tasks return
   their text and the caller prints after the map (see {!map_with_log}
   and the fig7/fig8 call sites).

   Per-task failures are retried with exponential backoff up to
   [opts.max_retries] times.  Budget exhaustion and cancellation are
   never retried — more attempts cannot help, and retrying them would
   turn a cooperative shutdown into a spin.  The retry Diag events are
   recorded inside the task's capture buffer, so the merged log is
   deterministic, and the "par.retries" Telemetry counter (an Atomic)
   tallies them process-wide. *)

let c_retries = Telemetry.counter "par.retries"

let never_retry = function
  | Diag.Error (Diag.Cancelled _ | Diag.Budget_exhausted _) -> true
  | _ -> false

let run_with_retries ~budget ~max_retries ~backoff_s f x =
  let rec attempt k =
    match f x with
    | y -> y
    | exception e when never_retry e -> raise e
    | exception e when k < max_retries ->
        Telemetry.incr c_retries;
        Diag.record ~fallback:true ~origin:"Par.map"
          (Printf.sprintf "task attempt %d/%d failed (%s); retrying" (k + 1)
             (max_retries + 1) (Printexc.to_string e));
        (* Cancellation requested while this task was failing wins over
           another attempt. *)
        Budget.check ~what:"Par.map retry" budget;
        Unix.sleepf (backoff_s *. (2. ** float_of_int k));
        attempt (k + 1)
  in
  attempt 0

let default_backoff = 1e-3

let map ?(opts = Solver_opts.default) ?(backoff_s = default_backoff) f xs =
  let pool = Pool.get ~jobs:(Solver_opts.resolve_jobs opts) in
  let budget = Solver_opts.resolve_budget opts in
  let max_retries = opts.Solver_opts.max_retries in
  Pool.map_array pool
    (fun x ->
      Diag.capture (fun () ->
          Telemetry.capture (fun () ->
              Budget.check ~what:"Par.map" budget;
              run_with_retries ~budget ~max_retries ~backoff_s f x)))
    (Array.of_list xs)
  |> Array.to_list
  |> List.map (fun ((y, spans), events) ->
         Diag.replay events;
         Telemetry.replay spans;
         y)

let map_partial ?(opts = Solver_opts.default) ?(backoff_s = default_backoff) f
    xs =
  let pool = Pool.get ~jobs:(Solver_opts.resolve_jobs opts) in
  let budget = Solver_opts.resolve_budget opts in
  let max_retries = opts.Solver_opts.max_retries in
  Pool.map_array pool
    (fun x ->
      Diag.capture (fun () ->
          Telemetry.capture (fun () ->
              match Budget.peek ~what:"Par.map_partial" budget with
              | Some e -> Error e
              | None -> (
                  match run_with_retries ~budget ~max_retries ~backoff_s f x with
                  | y -> Ok y
                  | exception
                      Diag.Error
                        ((Diag.Budget_exhausted _ | Diag.Cancelled _) as e) ->
                      Error e))))
    (Array.of_list xs)
  |> Array.to_list
  |> List.map (fun ((y, spans), events) ->
         Diag.replay events;
         Telemetry.replay spans;
         y)

let map_with_log ?opts ?backoff_s f xs =
  map ?opts ?backoff_s f xs
  |> List.map (fun (line, y) ->
         print_string line;
         print_newline ();
         y)

(* Graceful degradation for the figure loops: under deadline pressure
   keep whatever refinement levels completed (the coarse deltas, which
   are cheapest, run first in the input list) and turn each dropped one
   into a fallback Diag event.  Only when *nothing* completed does the
   budget error propagate — a figure with some curves is better than no
   figure, but an empty figure is a failure. *)
let map_with_log_degrading ?opts ?backoff_s ~origin ~label f xs =
  let results = map_partial ?opts ?backoff_s f xs in
  let first_error = ref None in
  let kept =
    List.filter_map
      (fun (x, r) ->
        match r with
        | Ok (line, y) ->
            print_string line;
            print_newline ();
            Some y
        | Error e ->
            (match !first_error with
            | None -> first_error := Some e
            | Some _ -> ());
            Diag.record ~fallback:true ~origin
              (Printf.sprintf "degraded: dropping %s (%s)" (label x)
                 (Diag.error_to_string e));
            None)
      (List.combine xs results)
  in
  match (kept, !first_error) with
  | [], Some e -> Diag.fail e
  | kept, _ -> kept
