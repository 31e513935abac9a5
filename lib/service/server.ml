open Batlife_numerics

(* Server IO fault sites (see Fi): a client reading/writing slowly, a
   client vanishing mid-batch, a frame burst that must be shed, and a
   partial write back to the client.  Consulted on the hot paths at
   the one-atomic-load disabled cost. *)
let fi_slow_read = Fi.site "server.slow_read"
let fi_disconnect = Fi.site "server.disconnect"
let fi_frame_flood = Fi.site "server.frame_flood"
let fi_short_write = Fi.site "server.short_write"

let c_shed = Telemetry.counter "service.shed"

(* Per-connection guard limits.  Every limit answers a distinct way a
   single client could wedge or exhaust the daemon: a frame with no
   newline in sight (memory), a stalled sender or a dead reader
   (liveness of the serial accept loop), a stream of garbage
   (pointless work), and a burst beyond the pending queue (latency for
   everyone else). *)
type limits = {
  max_frame_bytes : int;
  read_idle_s : float;
  write_timeout_s : float;
  max_strikes : int;
  queue : int;
}

let default_limits =
  {
    max_frame_bytes = 1 lsl 20;
    read_idle_s = 300.;
    write_timeout_s = 30.;
    max_strikes = 5;
    queue = 128;
  }

let check_limits l =
  if l.max_frame_bytes < 1 then
    invalid_arg "Server: max_frame_bytes must be >= 1";
  if not (Float.is_finite l.read_idle_s && l.read_idle_s > 0.) then
    invalid_arg "Server: read_idle_s must be positive and finite";
  if not (Float.is_finite l.write_timeout_s && l.write_timeout_s > 0.) then
    invalid_arg "Server: write_timeout_s must be positive and finite";
  if l.max_strikes < 1 then invalid_arg "Server: max_strikes must be >= 1";
  if l.queue < 0 then invalid_arg "Server: queue must be >= 0"

(* Why a connection was ended early; [`Eof] is the normal end. *)
type drop_reason =
  [ `Eof
  | `Oversized_frame
  | `Idle_timeout
  | `Write_timeout
  | `Too_many_strikes
  | `Client_gone
  | `Draining ]

(* A buffered line reader over a raw fd.  [next_line ~block:false]
   only returns a line that is already buffered or immediately
   readable (zero-timeout select) — the greedy-batching probe.
   Blocking reads wait at most [read_idle_s] via a select deadline. *)
type reader = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  chunk : Bytes.t;
  limits : limits;
  stop : unit -> bool;
      (** drain flag: blocking reads poll it and give up promptly *)
  mutable eof : bool;
  mutable dropped : drop_reason option;
}

let reader ~limits ~stop fd =
  {
    fd;
    buf = Buffer.create 4096;
    chunk = Bytes.create 65536;
    limits;
    stop;
    eof = false;
    dropped = None;
  }

let buffered_line r =
  let s = Buffer.contents r.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
      let line = String.sub s 0 i in
      Buffer.clear r.buf;
      Buffer.add_substring r.buf s (i + 1) (String.length s - i - 1);
      Some line

(* [block]: wait up to the connection's idle deadline for readability;
   otherwise a zero-timeout probe.  Returns whether any bytes landed.
   Sets [dropped] on idle timeout and [eof] on EOF / injected
   disconnect. *)
let refill ~block r =
  if r.eof || r.dropped <> None then false
  else begin
    if Fi.fires fi_slow_read then Unix.sleepf 0.05;
    if Fi.fires fi_disconnect then begin
      r.eof <- true;
      false
    end
    else
      let ready =
        if block then begin
          let deadline = Unix.gettimeofday () +. r.limits.read_idle_s in
          (* Wait in short slices so a drain request (or a signal) ends
             the wait within a tick, not at the idle deadline. *)
          let rec wait () =
            if r.stop () then begin
              r.dropped <- Some `Draining;
              false
            end
            else
              let left = deadline -. Unix.gettimeofday () in
              if left <= 0. then begin
                r.dropped <- Some `Idle_timeout;
                false
              end
              else
                match Unix.select [ r.fd ] [] [] (Float.min left 0.1) with
                | [ _ ], _, _ -> true
                | _ -> wait ()
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
          in
          wait ()
        end
        else
          match Unix.select [ r.fd ] [] [] 0. with
          | [ _ ], _, _ -> true
          | _ -> false
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
      in
      ready
      &&
      match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
      | 0 ->
          r.eof <- true;
          false
      | n ->
          Buffer.add_subbytes r.buf r.chunk 0 n;
          true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> not r.eof
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
          r.eof <- true;
          r.dropped <- Some `Client_gone;
          false
  end

let rec next_line ~block r =
  match buffered_line r with
  | Some line -> Some line
  | None ->
      if r.dropped <> None then None
      else if Buffer.length r.buf > r.limits.max_frame_bytes then begin
        (* No newline within the frame budget: a hostile or broken
           client streaming one endless line.  Refusing here bounds
           per-connection memory. *)
        r.dropped <- Some `Oversized_frame;
        None
      end
      else if r.eof then
        (* At EOF a trailing unterminated line still counts. *)
        if Buffer.length r.buf = 0 then None
        else begin
          let line = Buffer.contents r.buf in
          Buffer.clear r.buf;
          Some line
        end
      else if refill ~block r then next_line ~block r
      else if block && r.dropped = None && not r.eof then next_line ~block:true r
      else None

(* Write with a liveness deadline: a client that stops reading leaves
   the socket buffer full and [write] blocked forever — exactly the
   "one dead client wedges the accept loop" failure this guards
   against.  Returns [Error reason] instead of raising so the caller
   can drop the connection and keep serving. *)
let write_all ~limits fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let deadline = Unix.gettimeofday () +. limits.write_timeout_s in
  let rec go off =
    if off >= n then Ok ()
    else
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then Error `Write_timeout
      else
        match Unix.select [] [ fd ] [] left with
        | _, [], _ -> Error `Write_timeout
        | _ -> (
            let len =
              (* A fired short-write site truncates this round's write
                 to one byte: the frame must still arrive intact
                 through the resume loop (self-verifying — the chaos
                 harness checks the client got well-formed frames). *)
              if Fi.fires fi_short_write then 1 else n - off
            in
            match Unix.write fd b off len with
            | written -> go (off + written)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
            | exception
                Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
                Error `Client_gone)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Decode errors become protocol-error responses on the same line
   slot, so a batch with one bad frame still answers the good ones. *)
type parsed =
  | Request of Query.request
  | Bad of Query.response

let parse line =
  match Query.request_of_line ~source:"<request>" line with
  | Ok r -> Request r
  | Error e -> Bad { Query.r_id = ""; cache = None; result = Error e }

let id_of_parsed = function
  | Request r -> r.Query.id
  | Bad resp -> resp.Query.r_id

(* Record one frame the engine never saw (protocol rejections and
   sheds) so the access log and per-kind histograms still own a line
   for it. *)
let record_boundary obs ~kind ~id ~code ~batch =
  Obs.record obs
    {
      Obs.rid = Obs.next_rid obs;
      id;
      kind;
      fingerprint = None;
      cache = None;
      ok = false;
      code;
      latency_s = 0.;
      batch;
      group = 1;
      phases = [];
    }

let shed_response obs parsed =
  let retry_after_s = Obs.retry_hint_s obs in
  let e =
    Query.overloaded_error ~retry_after_s
      "admission queue full; request shed before processing"
  in
  { Query.r_id = id_of_parsed parsed; cache = None; result = Error e }

(* One connection.  The pending queue holds admitted frames beyond the
   batch in hand (bounded by [limits.queue]); everything drained
   beyond that is shed immediately with an overloaded frame.  Returns
   how the connection ended. *)
(* A client that closes before reading its responses turns the next
   [write] into SIGPIPE, which would kill the daemon before the EPIPE
   handler ever runs.  Ignore it process-wide so disconnects surface as
   the structured [`Client_gone] drop instead. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let serve_connection ?(limits = default_limits) ?drain ?(max_batch = 64) service
    ~in_fd ~out_fd () =
  check_limits limits;
  ignore_sigpipe ();
  let draining () =
    match drain with Some d -> Drain.requested d | None -> false
  in
  let r = reader ~limits ~stop:draining in_fd in
  let obs = Service.obs service in
  let pending = Queue.create () in
  let strikes = ref 0 in
  let write_frame resp =
    match write_all ~limits out_fd (Query.response_to_line resp) with
    | Ok () -> Ok ()
    | Error reason ->
        r.dropped <- Some (reason :> drop_reason);
        Error reason
  in
  (* Greedy drain of everything immediately readable: fill the batch
     to [max_batch], park up to [limits.queue] frames as pending, shed
     (and answer right now) the rest. *)
  let top_up batch n =
    let shed_count = ref 0 in
    let rec go () =
      if draining () then ()
      else
      match next_line ~block:false r with
      | None -> ()
      | Some line ->
          let p = parse line in
          let flooded = Fi.fires fi_frame_flood in
          if (not flooded) && !n < max_batch then begin
            batch := p :: !batch;
            incr n;
            go ()
          end
          else if (not flooded) && Queue.length pending < limits.queue then begin
            Queue.add p pending;
            go ()
          end
          else begin
            Telemetry.incr c_shed;
            incr shed_count;
            record_boundary obs ~kind:"overloaded" ~id:(id_of_parsed p)
              ~code:Query.overloaded_code ~batch:!n;
            match write_frame (shed_response obs p) with
            | Ok () -> go ()
            | Error _ -> ()
          end
    in
    go ();
    Obs.note_queue_depth obs (Queue.length pending);
    !shed_count
  in
  let next_batch () =
    let batch = ref [] and n = ref 0 in
    while !n < max_batch && not (Queue.is_empty pending) do
      batch := Queue.pop pending :: !batch;
      incr n
    done;
    if !n > 0 then begin
      ignore (top_up batch n : int);
      Some (List.rev !batch)
    end
    else if draining () then None
    else
      match next_line ~block:true r with
      | None -> None
      | Some first ->
          batch := [ parse first ];
          n := 1;
          ignore (top_up batch n : int);
          Some (List.rev !batch)
  in
  let answer parsed =
    let requests =
      List.filter_map (function Request q -> Some q | Bad _ -> None) parsed
    in
    let answered = ref (Service.handle_batch ?drain service requests) in
    let batch_n = List.length parsed in
    (* Malformed frames never reach the engine, but the access log
       still owes them a line: count the strike and record the
       rejection at the server boundary. *)
    List.iter
      (function
        | Request _ -> ()
        | Bad resp ->
            incr strikes;
            let code =
              match resp.Query.result with
              | Error e -> e.Query.code
              | Ok _ -> 0
            in
            record_boundary obs ~kind:"protocol" ~id:resp.Query.r_id ~code
              ~batch:batch_n)
      parsed;
    let responses =
      List.map
        (function
          | Bad resp -> resp
          | Request _ -> (
              match !answered with
              | resp :: rest ->
                  answered := rest;
                  resp
              | [] -> assert false))
        parsed
    in
    let rec write_loop = function
      | [] -> Ok ()
      | resp :: rest -> (
          match write_frame resp with
          | Ok () -> write_loop rest
          | Error _ as e -> e)
    in
    write_loop responses
  in
  let rec loop () =
    if !strikes >= limits.max_strikes then `Too_many_strikes
    else
      match next_batch () with
      | None -> (
          match r.dropped with
          | Some reason -> reason
          | None -> if r.eof then `Eof else `Draining)
      | Some parsed -> (
          match answer parsed with
          | Ok () -> loop ()
          | Error reason -> (reason :> drop_reason))
  in
  let outcome = loop () in
  (* An oversized frame earns the client a structured goodbye; the
     other drops are liveness failures where writing would block. *)
  (match outcome with
  | `Oversized_frame ->
      let e =
        Query.protocol_error
          (Printf.sprintf "frame exceeds max_frame_bytes (%d)"
             limits.max_frame_bytes)
      in
      record_boundary obs ~kind:"protocol" ~id:"" ~code:e.Query.code ~batch:0;
      ignore
        (write_frame { Query.r_id = ""; cache = None; result = Error e }
          : (unit, _) result)
  | `Too_many_strikes ->
      let e =
        Query.protocol_error
          (Printf.sprintf "dropped after %d malformed frames" !strikes)
      in
      ignore
        (write_frame { Query.r_id = ""; cache = None; result = Error e }
          : (unit, _) result)
  | _ -> ());
  outcome

let serve_fd ?limits ?drain ?max_batch service ~in_fd ~out_fd =
  ignore
    (serve_connection ?limits ?drain ?max_batch service ~in_fd ~out_fd ()
      : drop_reason)

let serve_stdio ?limits ?drain ?max_batch service =
  serve_fd ?limits ?drain ?max_batch service ~in_fd:Unix.stdin
    ~out_fd:Unix.stdout

(* Stale-socket handling: a socket file is removed only after a failed
   [connect] probe.  A live daemon answers the probe, and this one
   refuses to bind rather than silently stealing the path from it. *)
let remove_stale_socket path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        match Unix.connect probe (Unix.ADDR_UNIX path) with
        | () -> true
        | exception Unix.Unix_error (_, _, _) -> false
      in
      (try Unix.close probe with Unix.Unix_error _ -> ());
      if live then
        Diag.fail
          (Diag.Parse_error
             {
               source = path;
               line = 0;
               field = None;
               message =
                 "socket is in use by a live daemon (connect probe \
                  succeeded); refusing to steal it";
             })
      else Unix.unlink path)
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let serve_unix ?limits ?drain ?max_batch ?max_connections ?(backlog = 64)
    service ~path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match remove_stale_socket path with
  | () -> ()
  | exception e ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      raise e);
  Fun.protect
    ~finally:(fun () ->
      Unix.close sock;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock backlog;
      let draining () =
        match drain with Some d -> Drain.requested d | None -> false
      in
      (* Accept through a short select so a drain request turns into
         "stop accepting" within a poll tick, not at the next client. *)
      let rec accept_next () =
        if draining () then None
        else
          match Unix.select [ sock ] [] [] 0.1 with
          | [ _ ], _, _ -> (
              match Unix.accept sock with
              | conn -> Some conn
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_next ())
          | _ -> accept_next ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_next ()
      in
      let rec accept_loop remaining =
        match remaining with
        | Some 0 -> ()
        | _ -> (
            match accept_next () with
            | None ->
                Diag.record ~origin:"serve"
                  "drain: stopped accepting connections"
            | Some (client, _) ->
                Fun.protect
                  ~finally:(fun () ->
                    try Unix.close client with Unix.Unix_error _ -> ())
                  (fun () ->
                    ignore
                      (serve_connection ?limits ?drain ?max_batch service
                         ~in_fd:client ~out_fd:client ()
                        : drop_reason));
                accept_loop (Option.map (fun n -> n - 1) remaining))
      in
      accept_loop max_connections)
