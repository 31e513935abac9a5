open Batlife_numerics
open Batlife_ctmc
open Batlife_battery
open Batlife_workload
open Batlife_core

type outcome = Died of float | Survived of Kibam.state

type event = { time : float; state : int; battery : Kibam.state }

let pick_initial rng (m : Model.t) = Rng.discrete rng m.Model.initial

(* Precomputed jump table: per state, successor indices and their
   cumulative rate fractions, so each jump is a binary-free linear scan
   over the (tiny) successor list without allocation. *)
let jump_table g =
  let n = Generator.n_states g in
  Array.init n (fun i ->
      let targets = ref [] in
      for j = n - 1 downto 0 do
        if j <> i then begin
          let r = Generator.rate g i j in
          if r > 0. then targets := (j, r) :: !targets
        end
      done;
      let targets = Array.of_list !targets in
      let total = Array.fold_left (fun acc (_, r) -> acc +. r) 0. targets in
      let acc = ref 0. in
      let cumulative =
        Array.map
          (fun (j, r) ->
            acc := !acc +. r;
            (j, !acc /. Float.max total 1e-300))
          targets
      in
      cumulative)

let pick_from_table rng table i =
  let successors = table.(i) in
  let u = Rng.uniform rng in
  let n = Array.length successors in
  let rec scan k =
    if k >= n - 1 then fst successors.(n - 1)
    else if u <= snd successors.(k) then fst successors.(k)
    else scan (k + 1)
  in
  if n = 0 then i else scan 0

type sim = {
  model : Kibamrm.t;
  table : (int * float) array array;
}

let prepare model =
  { model; table = jump_table model.Kibamrm.workload.Model.generator }

let simulate ?(horizon = 1e9) rng { model; table } ~record =
  let workload = model.Kibamrm.workload in
  let battery = model.Kibamrm.battery in
  let g = workload.Model.generator in
  let events = ref [] in
  let rec go time state charge =
    if record then events := { time; state; battery = charge } :: !events;
    let load = Model.current workload state in
    let exit = Generator.exit_rate g state in
    let sojourn =
      if exit <= 0. then infinity else Rng.exponential rng ~rate:exit
    in
    let dt = Float.min sojourn (horizon -. time) in
    match Kibam.empty_within battery ~load ~dt charge with
    | Some tau -> Died (time +. tau)
    | None ->
        if time +. dt >= horizon then
          Survived (Kibam.step battery ~load ~dt charge)
        else
          let charge' = Kibam.step battery ~load ~dt:sojourn charge in
          go (time +. sojourn) (pick_from_table rng table state) charge'
  in
  let outcome = go 0. (pick_initial rng workload) (Kibam.initial battery) in
  (List.rev !events, outcome)

let run ?horizon s rng = snd (simulate ?horizon rng s ~record:false)

let sample_lifetime ?horizon rng model = run ?horizon (prepare model) rng

let sample_path ?horizon rng model =
  simulate ?horizon rng (prepare model) ~record:true
