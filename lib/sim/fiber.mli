(** Simulated processes as OCaml 5 effect-handler fibers.

    A fiber runs ordinary OCaml code in direct style and blocks by
    {!suspend}ing: it hands a [resume] callback to whoever will wake it (a
    timer, a condition variable, a CPU scheduler) and the engine resumes the
    continuation at a later simulated instant.  All fibers share one OS
    thread; scheduling is deterministic. *)

type t

exception Killed
(** Delivered into a fiber whose {!kill} was requested. *)

val spawn : Engine.t -> ?name:string -> (unit -> unit) -> t
(** [spawn engine f] creates a fiber that starts running [f ()] at the
    current instant (after already-queued events). *)

val suspend : (t -> (unit -> unit) -> unit) -> unit
(** [suspend register] blocks the calling fiber.  [register fiber resume] is
    called immediately; stash [resume] somewhere and call it (once) to
    reschedule the fiber at the then-current instant.  Extra calls to
    [resume] are ignored.  Must be called from inside a fiber. *)

val set_wake_cleanup : t -> (unit -> unit) -> unit
(** For use inside a {!suspend} [register] function: installs a cleanup that
    runs exactly once when the fiber is resumed or killed — typically to
    cancel a pending timer so dead events do not drag the clock forward. *)

val sleep : Time.span -> unit
(** Blocks the calling fiber for the given simulated duration. *)

val yield : unit -> unit
(** Reschedules the calling fiber behind events queued at this instant. *)

val self : unit -> t
(** The running fiber.  @raise Invalid_argument outside any fiber. *)

val self_opt : unit -> t option

val in_fiber : unit -> bool

val name : t -> string
val id : t -> int

val alive : t -> bool
(** A fiber is alive from [spawn] until its body returns, raises, or is
    killed. *)

val kill : t -> unit
(** Requests termination.  A suspended fiber is woken with {!Killed}; a
    running fiber receives {!Killed} at its next suspension point.  Killing a
    dead fiber is a no-op. *)

val on_exit : t -> (unit -> unit) -> unit
(** [on_exit t f] runs [f] when [t] dies (immediately if already dead). *)

val join : t -> unit
(** Blocks the calling fiber until [t] dies.  Returns immediately if [t] is
    already dead. *)

val engine : t -> Engine.t

(** {1 Owner slot}

    A fiber carries one typed slot for the object that runs on it — a
    machine thread, say — so that object is found from the running fiber
    by a field read, and is garbage as soon as the fiber is.  Clients
    extend {!owner} with their own constructor. *)

type owner = ..
type owner += Unowned  (** the slot of a fresh fiber *)

val set_owner : t -> owner -> unit

val current_owner : unit -> owner
(** The running fiber's owner; [Unowned] outside any fiber. *)
