(** Application-facing API of the replicated-kernel OS.

    Programs are OCaml closures receiving a {!thread} handle; its
    operations mirror the Linux surface the paper's applications use —
    compute, clone (optionally onto another kernel), migrate, the mmap
    family, memory access with demand faulting and coherence underneath,
    futexes, and process control. Everything is location-transparent: the
    same program runs unchanged wherever its threads live, which is the
    paper's single-system-image claim. *)

open Types

type thread = {
  cluster : cluster;
  proc : process;
  task : Kernelmodel.Task.t;
}
(** A running thread's handle: its group, its task control block, and the
    cluster it lives in. [task.kernel]/[task.core] track its location. *)

exception Killed
(** Raised inside a thread's own operations once the thread has been
    terminated by {!exit_group} or {!kill}; the thread-body wrapper catches
    it, so user code may simply let it propagate. *)

(** {1 Identity and location} *)

val tid : thread -> Kernelmodel.Ids.tid
val pid : thread -> pid

val current_kernel : thread -> kernel
(** The kernel hosting this thread right now. *)

val current_core : thread -> Hw.Topology.core

val replica : thread -> replica
(** This process's address-space replica on the thread's current kernel.
    Read-only inspection of local page-table state (e.g. deciding whether
    the next access would fault) costs nothing in simulated time. *)

(** {1 Execution} *)

val compute : thread -> Sim.Time.t -> unit
(** Burn CPU on the thread's core (timeshared). Threads move between
    kernels only when they call {!migrate}. *)

val spawn :
  thread -> ?target:int -> (thread -> unit) -> Kernelmodel.Ids.tid
(** Clone a new member of this thread group onto kernel [target] (default:
    the caller's kernel), running the body. Returns once the thread exists;
    the body runs concurrently. *)

val migrate : ?deadline:Sim.Time.t -> thread -> dst:int -> Migration.breakdown
(** Move this thread to kernel [dst]; on return it is running there. The
    returned breakdown decomposes the cost (experiment T1). When
    [deadline] (an end-to-end budget in simulated ns) is given, the SLO
    layer counts the migration as met or violated — see
    {!Migration.migrate}; accounting only, never a behaviour change. *)

(** {1 Memory} *)

val mmap :
  thread ->
  len:int ->
  prot:Kernelmodel.Vma.prot ->
  (Kernelmodel.Vma.vma, string) result
(** Anonymous mapping in the group-wide address space (page-aligned len). *)

val munmap : thread -> start:int -> len:int -> (unit, string) result
val mprotect :
  thread ->
  start:int ->
  len:int ->
  prot:Kernelmodel.Vma.prot ->
  (unit, string) result

val read : thread -> addr:int -> (int, string) result
(** Load one word, demand-faulting (and replicating the page) as needed.
    Returns the content version visible here — tests use it to check
    coherence; applications treat it as the loaded value. *)

val write : thread -> addr:int -> (unit, string) result
(** Store one word, acquiring exclusive page ownership as needed. *)

(** {1 Synchronisation} *)

type wait_result = Dfutex.wait_result = Woken | Timed_out

val futex_wait :
  thread -> ?timeout:Sim.Time.t -> addr:int -> unit -> wait_result

val futex_wake : thread -> addr:int -> count:int -> int
(** Returns how many waiters were woken. *)

(** {1 Files (single-system-image remote syscalls)}

    File operations are served by the kernel owning the storage device
    (kernel 0); threads elsewhere forward the syscall transparently. File
    descriptors are per-process and shared by the whole group, wherever
    its threads run. *)

val open_file : thread -> path:string -> (int, string) result
(** Open (creating if absent); returns the fd. *)

val file_read : thread -> fd:int -> len:int -> (int, string) result
(** Sequential read from the fd's cursor; returns bytes actually read
    (short at EOF). *)

val file_write : thread -> fd:int -> len:int -> (int, string) result

val file_seek : thread -> fd:int -> pos:int -> (int, string) result
(** Reposition the (group-shared) cursor; returns the new offset. *)

val close_file : thread -> fd:int -> (unit, string) result

(** {1 Process control} *)

val start_process : cluster -> origin:int -> (thread -> unit) -> process
(** Start a new process whose initial thread runs the body on kernel
    [origin]. Must be called from inside the simulation (a fiber). *)

val fork : thread -> (thread -> unit) -> process
(** fork(): child process homed at this thread's kernel, running [main]
    with a COW-inherited copy of this address space (contents shared
    logically; first touches fault in private copies). *)

val wait_exit : cluster -> process -> unit
(** Park until every thread of the group has exited. *)

val exit_group : thread -> 'a
(** Terminate every member of this group on every kernel, then raise
    {!Killed} in the caller. *)

val kill : thread -> tid:Kernelmodel.Ids.tid -> bool
(** SIGKILL a member by tid wherever it lives; [false] if already dead.
    The victim observes the kill at its next operation. *)

val global_tasks : thread -> (Kernelmodel.Ids.tid * pid) list
(** /proc-style global task listing, gathered from every kernel. *)
