(* Structured diagnostics shared by every layer.

   This module sits at the bottom of the dependency stack so the
   numerical kernels (iterative solvers, ODE steppers, uniformisation
   sweeps) can trip a typed diagnostic instead of a bare [failwith];
   [Batlife_robust.Validate] builds its collect-all model validation
   on the same type. *)

type error =
  | Invalid_model of { what : string; violations : string list }
  | Nonconvergence of {
      algorithm : string;
      iterations : int;
      residual : float;
      tolerance : float;
      attempted : string list;
    }
  | Numerical_breakdown of { where : string; detail : string }
  | Budget_exhausted of { what : string; budget : int }
  | Cancelled of { what : string; progress : string }
  | Parse_error of {
      source : string;
      line : int;
      field : string option;
      message : string;
    }

exception Error of error

let error_to_string = function
  | Invalid_model { what; violations } ->
      Printf.sprintf "invalid model (%s): %s" what
        (String.concat "; " violations)
  | Nonconvergence { algorithm; iterations; residual; tolerance; attempted } ->
      Printf.sprintf "%s did not converge after %d iterations (residual %g%s)%s"
        algorithm iterations residual
        (if Float.is_finite tolerance then
           Printf.sprintf ", tolerance %g" tolerance
         else "")
        (match attempted with
        | [] -> ""
        | chain -> "; attempted: " ^ String.concat " -> " chain)
  | Numerical_breakdown { where; detail } ->
      Printf.sprintf "numerical breakdown in %s: %s" where detail
  | Budget_exhausted { what; budget } ->
      Printf.sprintf "budget exhausted: %s (limit %d)" what budget
  | Cancelled { what; progress } ->
      Printf.sprintf "cancelled: %s (%s)" what progress
  | Parse_error { source; line; field; message } ->
      Printf.sprintf "parse error: %s, line %d%s: %s" source line
        (match field with None -> "" | Some f -> ", field " ^ f)
        message

let pp ppf e = Format.pp_print_string ppf (error_to_string e)

(* Distinct nonzero CLI exit codes; 1-2 and cmdliner's 123-125 stay
   free. *)
let exit_code = function
  | Invalid_model _ -> 3
  | Parse_error _ -> 4
  | Nonconvergence _ -> 5
  | Numerical_breakdown _ -> 6
  | Budget_exhausted _ -> 7
  | Cancelled _ -> 8

let fail e = raise (Error e)

let invalid_model ~what violations = fail (Invalid_model { what; violations })

let breakdown ~where fmt =
  Printf.ksprintf
    (fun detail -> fail (Numerical_breakdown { where; detail }))
    fmt

(* In-flight diagnostics: numerical components record which path ran
   (e.g. a fallback solver) into a process-wide sink; front ends drain
   it to surface the events next to their results.

   The sink is shared by every domain, so it is mutex-protected
   (events are rare — one per solver fallback — so the lock is never
   hot).  A parallel fan-out additionally wants per-task event
   streams merged back in task order, not arrival order: [capture]
   redirects the current domain's recordings into a private buffer,
   and [replay] re-records a buffer into the shared sink, so the
   merge order is whatever order the caller replays in. *)

type event = {
  origin : string;
  detail : string;
  fallback : bool;
  ctx : string option;
}

let sink : event list ref = ref []
let sink_mutex = Mutex.create ()

(* The current domain's capture buffer, if a [capture] is in flight. *)
let capture_cell : event list ref option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* The current domain's trace context (request id), stamped on every
   event recorded in its extent — mirrors [Telemetry.with_context]. *)
let context_cell : string option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_context ctx f =
  let cell = Domain.DLS.get context_cell in
  let saved = !cell in
  cell := Some ctx;
  match f () with
  | result ->
      cell := saved;
      result
  | exception e ->
      cell := saved;
      raise e

let current_context () = !(Domain.DLS.get context_cell)

let record_event e =
  match !(Domain.DLS.get capture_cell) with
  | Some buffer -> buffer := e :: !buffer
  | None ->
      Mutex.lock sink_mutex;
      sink := e :: !sink;
      Mutex.unlock sink_mutex

let record ?(fallback = false) ~origin detail =
  record_event
    { origin; detail; fallback; ctx = !(Domain.DLS.get context_cell) }

let capture f =
  let cell = Domain.DLS.get capture_cell in
  let saved = !cell in
  let buffer = ref [] in
  cell := Some buffer;
  match f () with
  | result ->
      cell := saved;
      (result, List.rev !buffer)
  | exception e ->
      cell := saved;
      raise e

(* Replay re-records the event values verbatim: in particular the
   context each event was captured under survives the hop from the
   worker domain to the replaying one, so per-request notes stay
   attributable after the deterministic merge (re-stamping with the
   replayer's context would anonymise them). *)
let replay events = List.iter record_event events

let events () =
  Mutex.lock sink_mutex;
  let es = List.rev !sink in
  Mutex.unlock sink_mutex;
  es

let clear_events () =
  Mutex.lock sink_mutex;
  sink := [];
  Mutex.unlock sink_mutex
