type options = {
  out_dir : string;
  runs : int;
  full : bool;
  stochastic_runs : int;
  opts : Batlife_ctmc.Solver_opts.t;
  checkpoint : string option;
}

let default_options =
  { out_dir = Params.results_dir; runs = 1000; full = false;
    stochastic_runs = 100; opts = Batlife_ctmc.Solver_opts.default;
    checkpoint = None }

let experiments =
  [
    ( "table1",
      fun o -> Table1.run ~out_dir:o.out_dir ~stochastic_runs:o.stochastic_runs
          () );
    ("fig2", fun o -> Fig2.run ~out_dir:o.out_dir ());
    ("fig7", fun o -> Fig7.run ~opts:o.opts ~out_dir:o.out_dir ~runs:o.runs ());
    ( "fig8",
      fun o ->
        Fig8.run ~opts:o.opts ~out_dir:o.out_dir ~runs:o.runs ~full:o.full () );
    ("fig9", fun o -> Fig9.run ~opts:o.opts ~out_dir:o.out_dir ~full:o.full ());
    ( "fig10",
      fun o -> Fig10.run ~opts:o.opts ~out_dir:o.out_dir ~runs:o.runs () );
    ( "fig11",
      fun o -> Fig11.run ~opts:o.opts ~out_dir:o.out_dir ~runs:o.runs () );
    ( "ext_erlang_k",
      fun o ->
        Extensions.erlang_k ~opts:o.opts ~out_dir:o.out_dir ~runs:o.runs () );
    ( "ext_empty_recovery",
      fun o -> Extensions.empty_recovery ~opts:o.opts ~out_dir:o.out_dir () );
    ( "ext_frequency_sweep",
      fun o -> Extensions.frequency_sweep ~out_dir:o.out_dir () );
    ( "ext_richardson",
      fun o -> Extensions.richardson ~opts:o.opts ~out_dir:o.out_dir () );
    ( "ext_charge_profile",
      fun o -> Extensions.charge_profile ~opts:o.opts ~out_dir:o.out_dir () );
    ( "ext_sensitivity",
      fun o -> Extensions.sensitivity ~opts:o.opts ~out_dir:o.out_dir () );
  ]

let experiment_ids = List.map fst experiments

module Diag = Batlife_numerics.Diag
module Telemetry = Batlife_numerics.Telemetry

(* Print any fallback events the numerical layers recorded while [id]
   ran, then clear the sink so the next experiment starts fresh. *)
let surface_diagnostics id =
  List.iter
    (fun (e : Diag.event) ->
      if e.Diag.fallback then
        Printf.eprintf "experiment %s: note: %s: %s\n%!" id e.Diag.origin
          e.Diag.detail)
    (Diag.events ());
  Diag.clear_events ()

(* With telemetry on, each experiment runs under its own root span and
   prints a per-phase breakdown of the spans recorded while it ran.
   The capture collects only this experiment's spans (worker-domain
   spans are replayed into it by Par.map / convergence_study, in input
   order); replaying them afterwards keeps them available to the
   whole-process exporters (--metrics-out / --trace-out). *)
let with_experiment_span id f options =
  if not (Telemetry.enabled ()) then f options
  else begin
    let result, spans =
      Telemetry.capture (fun () ->
          Telemetry.with_span ("experiment." ^ id) (fun () -> f options))
    in
    Telemetry.replay spans;
    let breakdown = Batlife_output.Metrics_report.span_table (Telemetry.rollup spans) in
    if breakdown <> "" then
      Printf.eprintf "experiment %s: phase breakdown\n%s%!" id breakdown;
    result
  end

let run_one ?(options = default_options) id =
  match List.assoc_opt id experiments with
  | Some f -> (
      match with_experiment_span id f options with
      | () ->
          surface_diagnostics id;
          Ok ()
      | exception Diag.Error e ->
          surface_diagnostics id;
          Error
            (Printf.sprintf "experiment %s failed: %s" id
               (Diag.error_to_string e)))
  | None ->
      Error
        (Printf.sprintf "unknown experiment %S; valid ids: %s" id
           (String.concat ", " experiment_ids))

module Checkpoint = Batlife_core.Checkpoint

(* The batch-level completion map: after each successful experiment the
   checkpoint file is atomically rewritten with the ids finished so
   far, so a killed overnight run resumed with the same checkpoint path
   skips straight past everything already on disk. *)
let load_completed path =
  if not (Sys.file_exists path) then []
  else
    (* A corrupt completion map is quarantined and the batch restarts
       from an empty one: already-written figure artifacts are simply
       recomputed, never trusted blindly. *)
    match Checkpoint.load_for_resume ~path with
    | None -> []
    | Some (Checkpoint.Experiments { completed }) -> completed
    | Some (Checkpoint.Cdf _ | Checkpoint.Montecarlo _) ->
        Diag.invalid_model ~what:("checkpoint " ^ path)
          [
            "checkpoint holds a different computation kind, not an \
             experiments completion map";
          ]

let completion_tracker options =
  let completed =
    ref (match options.checkpoint with
        | None -> []
        | Some path -> load_completed path)
  in
  let is_done id = List.mem id !completed in
  let record_done id =
    match options.checkpoint with
    | None -> ()
    | Some path ->
        completed := !completed @ [ id ];
        Checkpoint.save ~path
          (Checkpoint.Experiments { completed = !completed })
  in
  (is_done, record_done)

let skip_note id =
  Printf.printf "experiment %s: already completed (checkpoint), skipping\n%!"
    id

let run_all ?(options = default_options) () =
  let is_done, record_done = completion_tracker options in
  List.iter
    (fun (id, _) ->
      if is_done id then skip_note id
      else
        match run_one ~options id with
        | Ok () -> record_done id
        | Error msg -> Printf.eprintf "%s (continuing with the rest)\n%!" msg)
    experiments

let run_many ?(options = default_options) ids =
  let is_done, record_done = completion_tracker options in
  let rec go = function
    | [] -> Ok ()
    | id :: rest ->
        if is_done id then begin
          skip_note id;
          go rest
        end
        else (
          match run_one ~options id with
          | Ok () ->
              record_done id;
              go rest
          | Error _ as e -> e)
  in
  go ids
