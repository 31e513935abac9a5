(* The batlife benchmark.

     bench.exe --batlife PATH --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 runs the workload against a live `batlife serve --socket`
   daemon with tracing off and reports the end-to-end metrics;
   --trace 1 runs the traced per-layer ledger for the same seeded
   requests.  --workload all runs every workload in turn.  Each run
   prints its metrics by name with unit and sample count, a context
   line (core count, job count, OCaml version, commit, seed), and as
   its last line the result object.  Exit codes: 0 all answers checked
   correct; 1 a failed output check or daemon cross-check (the result
   is still printed); 2 a percentile without sample support; 3 any
   other failure. *)

module Json = Batlife_numerics.Json

let usage () =
  prerr_endline
    "usage: bench.exe --batlife PATH --workload NAME|all --seed N --seconds S \
     --trace 0|1";
  exit 3

let parse argv =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
        Hashtbl.replace tbl (String.sub key 2 (String.length key - 2)) value;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  (get "batlife", get "workload", int "seed", int "seconds", int "trace")

let read_file path =
  try Some (String.trim (In_channel.with_open_bin path In_channel.input_all))
  with Sys_error _ -> None

let commit () =
  match read_file ".git/HEAD" with
  | None -> "none"
  | Some head when String.starts_with ~prefix:"ref: " head ->
      let r = String.sub head 5 (String.length head - 5) in
      Option.value (read_file (".git/" ^ r)) ~default:head
  | Some head -> head

(* CRC-64 of the program's sources, which names the code under test
   where the tree is not a git checkout. *)
let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | entries ->
        Array.sort compare entries;
        Array.to_list entries
        |> List.concat_map (fun e ->
               let p = Filename.concat dir e in
               if Sys.is_directory p then files p else [ p ])
    | exception Sys_error _ -> []
  in
  let crc =
    List.fold_left
      (fun crc p ->
        let crc = Batlife_numerics.Crc64.update crc p in
        match read_file p with
        | Some s -> Batlife_numerics.Crc64.update crc s
        | None -> crc)
      0L
      (files "lib" @ files "bin")
  in
  Printf.sprintf "%016Lx" crc

let print_metrics title (ms : Timed.metric list) =
  Printf.printf "  %s\n" title;
  List.iter
    (fun (m : Timed.metric) ->
      Printf.printf "    %-34s %16.6f %-6s n=%d\n" m.Timed.name m.Timed.value m.Timed.unit
        m.Timed.samples)
    ms

let result_line ~correct ~attempted ~failed (ms : Timed.metric list) =
  Json.encode
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.of_int attempted);
         ("failed", Json.of_int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (m : Timed.metric) ->
                  ( m.Timed.name,
                    Json.Obj
                      [ ("value", Json.of_float m.Timed.value); ("unit", Json.Str m.Timed.unit) ]
                  ))
                ms) );
       ])

(* One JSON object per line: [Json.encode] ends its text with a newline. *)
let print_json s = print_endline (String.trim s)

let run_one ~batlife ~seed ~seconds ~trace kind =
  let name = Workloads.name kind in
  let (o : Timed.outcome) =
    if trace = 0 then Timed.run ~batlife kind ~seed ~seconds:(float_of_int seconds)
    else Ledger.run ~batlife kind ~seed ~seconds:(float_of_int seconds)
  in
  Printf.printf "perfbench %s seed=%d seconds=%d trace=%d\n" name seed seconds trace;
  print_metrics (if trace = 0 then "end-to-end" else "per-layer") o.Timed.metrics;
  if o.Timed.extra <> [] then print_metrics "workload-specific (not gated)" o.Timed.extra;
  List.iteri
    (fun i n -> if i < 20 then Printf.printf "  FAILED CHECK: %s\n" n)
    o.Timed.notes;
  if List.length o.Timed.notes > 20 then
    Printf.printf "  ... %d failed checks in all\n" (List.length o.Timed.notes);
  let samples =
    List.map (fun (m : Timed.metric) -> (m.Timed.name, Json.of_int m.Timed.samples))
      (o.Timed.metrics @ o.Timed.extra)
  in
  print_json
    (Json.encode
       (Json.Obj
          [
            ( "context",
              Json.Obj
                ([
                   ("workload", Json.Str name);
                   ("seed", Json.of_int seed);
                   ("seconds", Json.of_int seconds);
                   ("trace", Json.of_int trace);
                   ("nproc", Json.of_int (Domain.recommended_domain_count ()));
                   ("ocaml", Json.Str Sys.ocaml_version);
                   ("commit", Json.Str (commit ()));
                   ("source_crc64", Json.Str (source_digest ()));
                   ("samples", Json.Obj samples);
                 ]
                @ o.Timed.context) );
          ]));
  print_json
    (result_line ~correct:o.Timed.correct ~attempted:o.Timed.attempted
       ~failed:o.Timed.failed o.Timed.metrics);
  o.Timed.correct

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  let batlife, workload, seed, seconds, trace = parse Sys.argv in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  if not (Sys.file_exists batlife) then begin
    Printf.eprintf "perfbench: no batlife binary at %s\n" batlife;
    exit 3
  end;
  let kinds =
    if workload = "all" then List.map snd Workloads.kinds
    else
      match List.assoc_opt workload Workloads.kinds with
      | Some k -> [ k ]
      | None ->
          Printf.eprintf "perfbench: unknown workload %S\n" workload;
          exit 3
  in
  match List.map (run_one ~batlife ~seed ~seconds ~trace) kinds with
  | results -> exit (if List.for_all Fun.id results then 0 else 1)
  | exception Sample.Unsupported msg ->
      Printf.eprintf "perfbench: unsupported percentile: %s\n" msg;
      exit 2
  | exception e ->
      Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
      exit 3
