open Batlife_numerics

type t = Sequential | Round_robin | Best_available | Random of int

let name = function
  | Sequential -> "sequential"
  | Round_robin -> "round robin"
  | Best_available -> "best available"
  | Random _ -> "random"

type state = { rng : Rng.t option }

let initial_state = function
  | Random seed -> { rng = Some (Rng.create ~seed:(Int64.of_int seed) ()) }
  | Sequential | Round_robin | Best_available -> { rng = None }

let choose policy state ~previous pack =
  let usable = Pack.usable_cells pack in
  match usable with
  | [] -> None
  | first :: _ -> (
      match policy with
      | Sequential -> Some first
      | Best_available -> Pack.best_available pack
      | Round_robin ->
          (* Smallest usable index strictly after [previous], wrapping
             around. *)
          let start = match previous with Some i -> i | None -> -1 in
          let after = List.filter (fun i -> i > start) usable in
          Some (match after with i :: _ -> i | [] -> first)
      | Random _ -> (
          match state.rng with
          | Some rng ->
              let arr = Array.of_list usable in
              Some arr.(Rng.int_below rng (Array.length arr))
          | None -> Some first))
