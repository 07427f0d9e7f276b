open Effect.Deep

type state = Ready | Running | Suspended | Dead

type owner = ..
type owner += Unowned

type t = {
  fid : int;
  fname : string;
  eng : Engine.t;
  mutable owner : owner;
  mutable state : state;
  mutable killed : bool;
  mutable exit_hooks : (unit -> unit) list;
  mutable pending_resume : (unit -> unit) option;
  mutable wake_cleanup : (unit -> unit) option;
}

exception Killed

type _ Effect.t += Suspend : (t -> (unit -> unit) -> unit) -> unit Effect.t

(* Both the fiber-id counter and the currently-running fiber are
   domain-local: each Exec.Pool worker domain drives its own engines, and
   sharing either across domains would race.  Ids stay unique within a
   domain, which is all the CPU model's job keys and the trace track names
   need. *)
let next_id = Domain.DLS.new_key (fun () -> ref 0)
let current = Domain.DLS.new_key (fun () : t option ref -> ref None)

(* Runs on every resume: a plain exception match restores the current
   fiber without [Fun.protect]'s closures. *)
let with_current fiber f =
  let current = Domain.DLS.get current in
  let saved = !current in
  current := Some fiber;
  match f () with
  | () -> current := saved
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    current := saved;
    Printexc.raise_with_backtrace e bt

let self_opt () = !(Domain.DLS.get current)

let self () =
  match self_opt () with
  | Some f -> f
  | None -> invalid_arg "Fiber.self: not inside a fiber"

let in_fiber () = self_opt () <> None
let name t = t.fname
let id t = t.fid
let alive t = t.state <> Dead
let engine t = t.eng
let set_owner t o = t.owner <- o
let current_owner () = match self_opt () with Some f -> f.owner | None -> Unowned

let run_exit_hooks fiber =
  let hooks = fiber.exit_hooks in
  fiber.exit_hooks <- [];
  List.iter (fun f -> f ()) hooks

let finish fiber =
  fiber.state <- Dead;
  fiber.pending_resume <- None;
  run_exit_hooks fiber

let handler fiber =
  {
    retc = (fun () -> finish fiber);
    exnc =
      (fun e ->
        finish fiber;
        match e with
        | Killed -> ()
        | e -> raise (Engine.Fiber_failure (fiber.fname, e)));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Suspend register ->
          Some
            (fun (k : (a, unit) continuation) ->
              fiber.state <- Suspended;
              let resumed = ref false in
              let resume () =
                if (not !resumed) && fiber.state <> Dead then begin
                  resumed := true;
                  fiber.pending_resume <- None;
                  (match fiber.wake_cleanup with
                   | Some cleanup ->
                     fiber.wake_cleanup <- None;
                     cleanup ()
                   | None -> ());
                  ignore
                    (Engine.schedule_now fiber.eng (fun () ->
                         with_current fiber (fun () ->
                             if fiber.killed then discontinue k Killed
                             else begin
                               fiber.state <- Running;
                               continue k ()
                             end)))
                end
              in
              fiber.pending_resume <- Some resume;
              register fiber resume;
              if fiber.killed then resume ())
        | _ -> None);
  }

let spawn eng ?(name = "fiber") f =
  let next_id = Domain.DLS.get next_id in
  incr next_id;
  let fiber =
    {
      fid = !next_id;
      fname = name;
      eng;
      owner = Unowned;
      state = Ready;
      killed = false;
      exit_hooks = [];
      pending_resume = None;
      wake_cleanup = None;
    }
  in
  ignore
    (Engine.schedule_now eng (fun () ->
         if not fiber.killed then begin
           fiber.state <- Running;
           with_current fiber (fun () -> match_with f () (handler fiber))
         end
         else finish fiber));
  fiber

let suspend register =
  let fiber = self () in
  ignore fiber;
  Effect.perform (Suspend register)

let set_wake_cleanup fiber f = fiber.wake_cleanup <- Some f

let sleep d =
  suspend (fun fiber resume ->
      let h = Engine.after fiber.eng d resume in
      set_wake_cleanup fiber (fun () -> Engine.cancel fiber.eng h))

let yield () = sleep 0

let kill t =
  if t.state <> Dead then begin
    t.killed <- true;
    match t.pending_resume with
    | Some resume -> resume ()
    | None -> ()
  end

let on_exit t f = if t.state = Dead then f () else t.exit_hooks <- f :: t.exit_hooks

let join t =
  if alive t then suspend (fun _ resume -> on_exit t resume)
