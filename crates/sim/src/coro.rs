//! Stackful coroutines: how a blocking-style process body runs on the
//! thread that called `SimBuilder::run`. Every `unsafe` of the crate is in
//! this module.
//!
//! A [`Coro`] owns a stack and a body. [`Coro::resume`] switches to that
//! stack and runs the body until it calls [`Yielder::suspend`] (or returns),
//! which switches back; values cross both ways through a heap cell both
//! sides point at. The switch is a dozen instructions: callee-saved
//! registers pushed on the stack being left, its `sp` stored, the other
//! `sp` loaded, registers popped, `ret`. Control words (MXCSR, x87 CW,
//! FPCR) are not saved: nothing here changes them.
//!
//! Dropping a coroutine that started and has not finished resumes it with
//! "unwind": `suspend` raises a [`Cancelled`] payload that runs the body's
//! destructors and is caught at the coroutine's entry, so no stack is ever
//! freed with live frames. A body that never started is just dropped.

use std::arch::naked_asm;
use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::{ptr, thread};

#[cfg(not(all(unix, any(target_arch = "x86_64", target_arch = "aarch64"))))]
compile_error!(
    "nscc-sim switches stacks with hand-written assembly; the supported \
     targets are unix on x86_64 and unix on aarch64"
);

/// Reserved per coroutine — what `std::thread` gave a process body.
/// Untouched pages cost no memory.
const STACK_BYTES: usize = 2 << 20;
/// Inaccessible low end of every stack: an overflow faults instead of
/// overwriting a neighbour. A multiple of every page size in use (4, 16
/// and 64 KiB); rustc probes frames larger than a page, so none skips it.
const GUARD_BYTES: usize = 64 << 10;
/// Finished coroutines' stacks a thread keeps mapped for its next ones:
/// mapping, first-touch faults and unmapping are most of a short run.
const SPARE_STACKS: usize = 32;

const PROT_NONE: i32 = 0;
const PROT_READ_WRITE: i32 = 1 | 2;
const MAP_PRIVATE: i32 = 2;
#[cfg(any(target_os = "linux", target_os = "android"))]
const MAP_ANONYMOUS: i32 = 0x20;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
const MAP_ANONYMOUS: i32 = 0x1000; // macOS and the BSDs

// std links libc already; these are its prototypes on 64-bit unix.
extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

thread_local! {
    static SPARE: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
}

/// An anonymous mapping of `STACK_BYTES` whose lowest `GUARD_BYTES` fault.
struct Stack(*mut u8);

impl Stack {
    fn new() -> Stack {
        if let Some(spare) = SPARE.with(|spare| spare.borrow_mut().pop()) {
            return spare;
        }
        let flags = MAP_PRIVATE | MAP_ANONYMOUS;
        // SAFETY: a fresh anonymous mapping at an address the kernel picks
        // aliases nothing; fd −1 / offset 0 are what MAP_ANONYMOUS expects.
        let base = unsafe { mmap(ptr::null_mut(), STACK_BYTES, PROT_READ_WRITE, flags, -1, 0) };
        assert!(
            !base.is_null() && base as isize != -1,
            "failed to map a {STACK_BYTES}-byte stack for a simulated process"
        );
        // SAFETY: the low end of the mapping just made, which nothing uses.
        let rc = unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) };
        assert_eq!(rc, 0, "failed to protect a stack's guard pages");
        Stack(base)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // Fails while the thread's list is itself being dropped.
        let kept = SPARE.try_with(|spare| {
            let mut spare = spare.borrow_mut();
            let room = spare.len() < SPARE_STACKS;
            if room {
                spare.push(Stack(self.0));
            }
            room
        });
        if !kept.unwrap_or(false) {
            // SAFETY: exactly the mapping `new` made; `Coro::drop` has run
            // the body out by now, so no frame on it is live.
            unsafe { munmap(self.0, STACK_BYTES) };
        }
    }
}

/// The frame [`switch`] pops off a fresh stack, as `[words, entry slot,
/// argument slot, return-address slot]`; every other word is zero.
/// x86_64: r15 r14 r13 r12 rbx rbp, the return address, and two words so
/// that the first `ret` leaves `rsp ≡ 0 (mod 16)` with a null return
/// address above it. aarch64: x19–x28, x29, x30, d8–d15, popped to the
/// 16-aligned stack top. A backtrace ends at the zeros either way.
#[cfg(target_arch = "x86_64")]
const FRAME: [usize; 4] = [9, 3, 4, 6];
#[cfg(target_arch = "aarch64")]
const FRAME: [usize; 4] = [20, 1, 0, 11];

/// Leave the running stack (its `sp` goes to `*save`) for the one whose
/// saved `sp` is `to`; returns when something switches back.
///
/// # Safety
/// `to` must be an `sp` that `switch` stored, or the start of a fresh
/// [`FRAME`], on a stack nothing is running on; `save` must be writable.
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8) {
    #[cfg(target_arch = "x86_64")]
    naked_asm!(
        "push rbp; push rbx; push r12; push r13; push r14; push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15; pop r14; pop r13; pop r12; pop rbx; pop rbp",
        "ret",
    );
    #[cfg(target_arch = "aarch64")]
    naked_asm!(
        "sub sp, sp, #160",
        "stp x19, x20, [sp, #0]\n stp x21, x22, [sp, #16]\n stp x23, x24, [sp, #32]",
        "stp x25, x26, [sp, #48]\n stp x27, x28, [sp, #64]\n stp x29, x30, [sp, #80]",
        "stp d8, d9, [sp, #96]\n stp d10, d11, [sp, #112]",
        "stp d12, d13, [sp, #128]\n stp d14, d15, [sp, #144]",
        "mov x9, sp",
        "str x9, [x0]",
        "mov sp, x1",
        "ldp x19, x20, [sp, #0]\n ldp x21, x22, [sp, #16]\n ldp x23, x24, [sp, #32]",
        "ldp x25, x26, [sp, #48]\n ldp x27, x28, [sp, #64]\n ldp x29, x30, [sp, #80]",
        "ldp d8, d9, [sp, #96]\n ldp d10, d11, [sp, #112]",
        "ldp d12, d13, [sp, #128]\n ldp d14, d15, [sp, #144]",
        "add sp, sp, #160",
        "ret",
    );
}

/// First code on a fresh stack: `entry(argument)`, both in the
/// callee-saved registers the fresh [`FRAME`] filled. `entry` never returns.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() {
    #[cfg(target_arch = "x86_64")]
    naked_asm!("mov rdi, rbx", "call r12", "ud2");
    #[cfg(target_arch = "aarch64")]
    naked_asm!("mov x0, x19", "blr x20", "brk #1");
}

/// The panic payload that unwinds a suspended body when its [`Coro`] is
/// dropped. Raised with `resume_unwind`, so no panic hook sees it.
pub(crate) struct Cancelled;

/// A coroutine's body, boxed until it starts.
type Body<I, O> = Box<dyn FnOnce(Yielder<I, O>, I) -> O>;

/// What a coroutine and its owner share. Only one of the two runs at any
/// time, so plain fields do.
struct Link<I, O> {
    /// The stack pointer of whichever side is not running; both sides
    /// switch with `switch(&raw mut sp, sp)` (read before it is replaced).
    sp: *mut u8,
    /// Taken when the body starts.
    body: Option<Body<I, O>>,
    /// For the body: `None` tells a suspended one to unwind.
    input: Option<I>,
    /// From the body; `Err` is a panic that escaped it.
    output: Option<thread::Result<O>>,
    /// The body returned or unwound; its stack holds no live frame.
    finished: bool,
}

/// A body of type `FnOnce(Yielder<I, O>, I) -> O` on its own stack.
pub(crate) struct Coro<I, O> {
    link: *mut Link<I, O>,
    /// Released after `drop` has run the body out.
    _stack: Stack,
}

/// The body's handle for handing control back to whoever resumed it.
/// Passed to the body by value and to nobody else: it must stay on the
/// coroutine's stack and end with the body. Neither `Send` nor `Clone`.
pub(crate) struct Yielder<I, O>(*mut Link<I, O>);

impl<I: 'static, O: 'static> Coro<I, O> {
    /// Take a stack and lay out the frame that starts `body` on the first
    /// [`resume`](Coro::resume). Nothing of `body` runs yet.
    pub(crate) fn new(body: impl FnOnce(Yielder<I, O>, I) -> O + 'static) -> Self {
        let stack = Stack::new();
        let link = Box::into_raw(Box::new(Link {
            sp: ptr::null_mut(),
            body: Some(Box::new(body)),
            input: None,
            output: None,
            finished: false,
        }));
        let [_, entry_at, argument_at, return_at] = FRAME;
        let mut frame = [0usize; FRAME[0]];
        frame[entry_at] = entry::<I, O> as unsafe extern "C" fn(*mut Link<I, O>) -> ! as usize;
        frame[argument_at] = link as usize;
        frame[return_at] = trampoline as *const () as usize;
        // SAFETY: the frame goes into the highest bytes of the mapping,
        // far above the guard and aligned (the mapping's end is
        // page-aligned, the frame a whole number of 8-byte words); `link`
        // is the live box.
        unsafe {
            let top = stack.0.add(STACK_BYTES).cast::<[usize; FRAME[0]]>();
            let sp = top.sub(1);
            sp.write(frame);
            (*link).sp = sp.cast();
        }
        Coro {
            link,
            _stack: stack,
        }
    }

    /// Run the body until it suspends or returns, and hand back what it
    /// passed. A panic that escaped the body continues on the caller.
    pub(crate) fn resume(&mut self, input: I) -> O {
        let link = self.link;
        // SAFETY: `link` lives until `drop`. The body is not running (we
        // are), so nothing else touches the cell, and `sp` is where it
        // last suspended or its fresh frame — `finished` rules out the
        // one stale case. The switch returns when the body switches back.
        unsafe {
            assert!(!(*link).finished, "resumed a finished coroutine");
            (*link).input = Some(input);
            switch(&raw mut (*link).sp, (*link).sp);
            match (*link).output.take() {
                Some(Ok(output)) => output,
                Some(Err(payload)) => panic::resume_unwind(payload),
                None => unreachable!("a coroutine switched back empty-handed"),
            }
        }
    }
}

impl<I, O> Yielder<I, O> {
    /// Hand `output` to the resumer and wait to be resumed; returns the
    /// next input. Unwinds with [`Cancelled`] instead when the coroutine is
    /// being dropped — every time it is asked, so a body that swallows
    /// the payload and suspends again is told again.
    pub(crate) fn suspend(&mut self, output: O) -> I {
        let link = self.0;
        // SAFETY: a `Yielder` exists only inside its body (see the type),
        // so we are on the coroutine's stack, the resumer is parked inside
        // `switch` with its `sp` in the cell, and the cell outlives us.
        unsafe {
            (*link).output = Some(Ok(output));
            switch(&raw mut (*link).sp, (*link).sp);
            match (*link).input.take() {
                Some(input) => input,
                None => panic::resume_unwind(Box::new(Cancelled)),
            }
        }
    }
}

/// Where `trampoline` lands: run the body, record how it ended, leave for
/// good. A panic out of here itself aborts (`extern "C"`).
unsafe extern "C" fn entry<I, O>(link: *mut Link<I, O>) -> ! {
    // SAFETY: `link` is the cell `Coro::new` put in the fresh frame; its
    // owner is parked in `resume` until we switch back, and never resumes
    // a finished coroutine, so the last switch cannot return.
    unsafe {
        let (body, input) = ((*link).body.take(), (*link).input.take());
        let (body, input) = body
            .zip(input)
            .expect("a coroutine starts once, with an input");
        let result = panic::catch_unwind(AssertUnwindSafe(|| body(Yielder(link), input)));
        (*link).output = Some(result);
        (*link).finished = true;
        switch(&raw mut (*link).sp, (*link).sp);
    }
    unreachable!("a finished coroutine was resumed")
}

impl<I, O> Drop for Coro<I, O> {
    fn drop(&mut self) {
        let link = self.link;
        // SAFETY: as in `resume`. A started, unfinished body is suspended
        // in `Yielder::suspend`; with no input it unwinds from there.
        unsafe {
            while (*link).body.is_none() && !(*link).finished {
                (*link).input = None;
                switch(&raw mut (*link).sp, (*link).sp);
                (*link).output = None;
            }
            drop(Box::from_raw(link));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// Bumps a counter when dropped.
    struct Bump(Rc<Cell<u32>>);

    impl Drop for Bump {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn values_cross_both_ways_until_the_body_returns() {
        let mut co = Coro::new(|mut y: Yielder<u32, u32>, first| {
            let second = y.suspend(first + 1);
            let third = y.suspend(second + 1);
            third * 2
        });
        assert_eq!(co.resume(10), 11);
        assert_eq!(co.resume(20), 21);
        assert_eq!(co.resume(30), 60);
    }

    #[test]
    fn floats_in_callee_saved_registers_survive_a_switch() {
        let mut co = Coro::new(|mut y: Yielder<f64, f64>, x| {
            let (a, b, c) = (x * 1.5, x * 2.5, x * 3.5);
            let more = y.suspend(a);
            a + b + c + more
        });
        let (p, q) = (std::hint::black_box(0.25), std::hint::black_box(8.0));
        assert_eq!(co.resume(2.0), 3.0);
        assert_eq!(co.resume(1.0), 3.0 + 5.0 + 7.0 + 1.0);
        assert_eq!(p * q, 2.0);
    }

    #[test]
    fn dropping_unwinds_a_suspended_body_and_skips_an_unstarted_one() {
        let drops = Rc::new(Cell::new(0));
        let (started, fresh) = (Bump(Rc::clone(&drops)), Bump(Rc::clone(&drops)));
        let mut co = Coro::new(move |mut y: Yielder<(), ()>, ()| {
            let _on_the_stack = started;
            loop {
                y.suspend(());
            }
        });
        co.resume(());
        co.resume(());
        assert_eq!(drops.get(), 0);
        drop(co);
        assert_eq!(drops.get(), 1, "the suspended body's local was dropped");
        let ran = Rc::new(Cell::new(false));
        let ran2 = Rc::clone(&ran);
        drop(Coro::new(move |_: Yielder<(), ()>, ()| {
            let _captured = &fresh;
            ran2.set(true);
        }));
        assert!(!ran.get(), "a body that never started never runs");
        assert_eq!(drops.get(), 2, "its captures are dropped all the same");
    }

    #[test]
    fn a_body_that_swallows_the_cancellation_is_told_again() {
        let mut co = Coro::new(|mut y: Yielder<(), u32>, ()| {
            let mut swallowed = 0;
            while swallowed < 3 {
                let told = panic::catch_unwind(AssertUnwindSafe(|| y.suspend(swallowed)));
                swallowed += u32::from(told.is_err());
            }
            swallowed
        });
        assert_eq!(co.resume(()), 0);
        drop(co); // returns: the body gave up after the third time
    }

    #[test]
    fn an_escaped_panic_continues_on_the_resumer() {
        let mut co = Coro::new(|mut y: Yielder<(), ()>, ()| {
            y.suspend(());
            panic::resume_unwind(Box::new("escaped"));
        });
        co.resume(());
        let payload = panic::catch_unwind(AssertUnwindSafe(|| co.resume(()))).unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"escaped"));
    }

    #[test]
    fn coroutines_are_unwound_while_their_owner_is_unwinding() {
        let drops = Rc::new(Cell::new(0));
        let bump = Bump(Rc::clone(&drops));
        let owner = panic::catch_unwind(AssertUnwindSafe(move || {
            let mut co = Coro::new(move |mut y: Yielder<(), ()>, ()| {
                let _on_the_stack = bump;
                y.suspend(());
            });
            co.resume(());
            panic::resume_unwind(Box::new("owner"));
        }));
        assert!(owner.is_err());
        assert_eq!(drops.get(), 1);
    }

    #[test]
    fn a_coroutine_can_run_coroutines() {
        let mut outer = Coro::new(|mut y: Yielder<u32, u32>, n| {
            let mut inner = Coro::new(|mut y: Yielder<u32, u32>, n| y.suspend(n + 1) + 1);
            let a = inner.resume(n);
            let m = y.suspend(a);
            inner.resume(m)
        });
        assert_eq!(outer.resume(1), 2);
        assert_eq!(outer.resume(5), 6);
    }
}
