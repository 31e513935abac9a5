(* The client side of the socket protocol: spawn and stop the real
   [batlife serve --socket] daemon, hold one connection to it, and
   drive a closed loop over that connection.  One thread, one
   connection: the daemon's accept loop is serial, so this is how it
   is really driven. *)

module Query = Batlife_service.Query

let now_ns = Batlife_numerics.Telemetry.now_ns
let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9

(* A daemon that has not answered within this long is wedged. *)
let io_timeout_s = 60.

(* Children not yet reaped, with the socket each may have bound;
   killed and cleaned up at exit, so an interrupted run leaves no
   daemon behind. *)
let children = ref []

let track ?socket pid = children := (pid, socket) :: !children
let reaped pid = children := List.filter (fun (p, _) -> p <> pid) !children

let () =
  at_exit (fun () ->
      List.iter
        (fun (pid, socket) ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] pid : int * Unix.process_status)
           with Unix.Unix_error _ -> ());
          Option.iter (fun s -> try Unix.unlink s with Unix.Unix_error _ -> ()) socket)
        !children)

type daemon = { pid : int; socket : string }

let spawn ~batlife ~socket ~cache_capacity =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let args =
    [ batlife; "serve"; "--socket"; socket ]
    @
    match cache_capacity with
    | Some n -> [ "--cache-capacity"; string_of_int n ]
    | None -> []
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process batlife (Array.of_list args) null null Unix.stderr)
  in
  track ~socket pid;
  { pid; socket }

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* SIGTERM starts the daemon's graceful drain; a daemon still alive
   after the drain allowance is killed.  Either way it is reaped. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 15. in
  let rec wait () =
    if exited d.pid then ()
    else if Unix.gettimeofday () > deadline then begin
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid : int * Unix.process_status)
    end
    else begin
      Unix.sleepf 0.005;
      wait ()
    end
  in
  wait ();
  reaped d.pid;
  try Unix.unlink d.socket with Unix.Unix_error _ -> ()

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        let line = input_line ic in
        match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
        | kb -> float_of_int kb /. 1024.
        | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> find ()
      in
      find ())

(* The machine's aggregate CPU ticks (all columns, and the steal
   column) from /proc/stat, when readable. *)
let cpu_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line when String.starts_with ~prefix:"cpu " line ->
      let fields =
        String.split_on_char ' ' line |> List.tl
        |> List.filter_map int_of_string_opt |> Array.of_list
      in
      if Array.length fields > 7 then Some (Array.fold_left ( + ) 0 fields, fields.(7))
      else None
  | _ -> None
  | exception Sys_error _ -> None

(* Share of the machine's CPU time the hypervisor stole between two
   [cpu_ticks] readings. *)
let steal_frac before after =
  match (before, after) with
  | Some (t0, s0), Some (t1, s1) when t1 > t0 ->
      Some (float_of_int (s1 - s0) /. float_of_int (t1 - t0))
  | _ -> None

type conn = {
  fd : Unix.file_descr;
  data : Bytes.t;
  mutable pos : int;
  mutable len : int;
  partial : Buffer.t;
  mutable stamp : int64;  (** when the last chunk arrived *)
}

let connect d =
  let deadline = Unix.gettimeofday () +. io_timeout_s in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.socket) with
    | () ->
        {
          fd;
          data = Bytes.create 65536;
          pos = 0;
          len = 0;
          partial = Buffer.create 4096;
          stamp = 0L;
        }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        if exited d.pid then failwith "daemon exited before accepting"
        else if Unix.gettimeofday () > deadline then
          failwith "daemon did not open its socket"
        else begin
          Unix.sleepf 0.0002;
          go ()
        end
  in
  go ()

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let write_all c s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring c.fd s off (String.length s - off))
  in
  go 0

(* The next response line; [c.stamp] is then the time its last byte
   was read. *)
let read_line c =
  let rec scan () =
    let rec find i =
      if i >= c.len then -1
      else if Bytes.unsafe_get c.data i = '\n' then i
      else find (i + 1)
    in
    let nl = find c.pos in
    if nl >= 0 then begin
      Buffer.add_subbytes c.partial c.data c.pos (nl - c.pos);
      c.pos <- nl + 1;
      let line = Buffer.contents c.partial in
      Buffer.clear c.partial;
      line
    end
    else begin
      Buffer.add_subbytes c.partial c.data c.pos (c.len - c.pos);
      (match Unix.select [ c.fd ] [] [] io_timeout_s with
      | [], _, _ -> failwith "daemon stopped answering"
      | _ -> ());
      let n = Unix.read c.fd c.data 0 (Bytes.length c.data) in
      if n = 0 then failwith "daemon closed the connection";
      c.stamp <- now_ns ();
      c.pos <- 0;
      c.len <- n;
      scan ()
    end
  in
  scan ()

(* One answered unit: its frames with their raw response lines, and
   its latency from the first byte sent to the last byte read. *)
type sample = {
  frames : (Query.request * string) list;
  latency_s : float;
}

type inflight = {
  reqs : Query.request list;
  sent : int64;
  mutable got : string list;
  mutable missing : int;
}

(* Whether a whole response line is already buffered. *)
let line_buffered c =
  let rec find i = i < c.len && (Bytes.unsafe_get c.data i = '\n' || find (i + 1)) in
  find c.pos

(* Closed loop: keep [window] units in flight, take units from [next]
   until it returns [None], drain, and return the samples in
   completion order with the loop's elapsed seconds.  Answers already
   buffered are all consumed before the freed slots are refilled, and
   the refill goes out in one write. *)
let run_loop c ~window ~next =
  let t0 = now_ns () in
  let queue = Queue.create () in
  let samples = ref [] in
  let exhausted = ref false in
  let fill () =
    let rec take acc n =
      if !exhausted || n = 0 then List.rev acc
      else
        match next () with
        | None ->
            exhausted := true;
            List.rev acc
        | Some reqs -> take (reqs :: acc) (n - 1)
    in
    match take [] (window - Queue.length queue) with
    | [] -> ()
    | units ->
        let payload =
          String.concat "" (List.concat_map (List.map Query.request_to_line) units)
        in
        let sent = now_ns () in
        write_all c payload;
        List.iter
          (fun reqs -> Queue.push { reqs; sent; got = []; missing = List.length reqs } queue)
          units
  in
  let answer () =
    let line = read_line c in
    let u = Queue.peek queue in
    u.got <- line :: u.got;
    u.missing <- u.missing - 1;
    if u.missing = 0 then begin
      ignore (Queue.pop queue : inflight);
      samples :=
        {
          frames = List.combine u.reqs (List.rev u.got);
          latency_s = seconds_between u.sent c.stamp;
        }
        :: !samples
    end
  in
  let rec loop () =
    fill ();
    if not (Queue.is_empty queue) then begin
      answer ();
      while (not (Queue.is_empty queue)) && line_buffered c do
        answer ()
      done;
      loop ()
    end
  in
  loop ();
  (List.rev !samples, seconds_between t0 (now_ns ()))

let of_list units =
  let rest = ref units in
  fun () ->
    match !rest with
    | [] -> None
    | u :: tl ->
        rest := tl;
        Some u

let deadline seconds = Int64.add (now_ns ()) (Int64.of_float (seconds *. 1e9))
let until ~stop_ns next () = if now_ns () >= stop_ns then None else Some (next ())

(* One request answered on its own: admin probes and the scrape. *)
let call c (r : Query.request) =
  match run_loop c ~window:1 ~next:(of_list [ [ r ] ]) with
  | [ { frames = [ (_, line) ]; latency_s } ], _ -> (line, latency_s)
  | _ -> assert false
