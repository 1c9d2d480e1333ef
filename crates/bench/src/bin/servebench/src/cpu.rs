//! The process's CPU clock.

use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("servebench reads the Linux process CPU clock with a 64-bit `timespec`");

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// `CLOCK_THREAD_CPUTIME_ID` of Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

fn read_clock(clock_id: i32) -> Result<Duration, String> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the layout 64-bit
    // Linux expects, and `clock_gettime` writes only through that pointer.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    if rc != 0 {
        return Err(format!(
            "clock_gettime({clock_id}): {}",
            std::io::Error::last_os_error()
        ));
    }
    let nanos = u32::try_from(ts.tv_nsec).map_err(|_| "clock_gettime: bad tv_nsec")?;
    let secs = u64::try_from(ts.tv_sec).map_err(|_| "clock_gettime: bad tv_sec")?;
    Ok(Duration::new(secs, nanos))
}

/// CPU time of every thread of the process so far, ended threads included,
/// to the nanosecond. Time the hypervisor of a virtual machine ran other
/// guests instead (steal) is not in it, which is what makes it steadier
/// than wall time on a shared host.
pub fn process_time() -> Result<Duration, String> {
    read_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread so far, to the nanosecond.
pub fn thread_time() -> Result<Duration, String> {
    read_clock(CLOCK_THREAD_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_clock_counts_work_and_not_sleep() {
        let _serial = crate::serial();
        let t0 = process_time().unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let slept = process_time().unwrap() - t0;
        let t1 = process_time().unwrap();
        let mut x = 0u64;
        let until = std::time::Instant::now() + Duration::from_millis(30);
        while std::time::Instant::now() < until {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let worked = process_time().unwrap() - t1;
        // Unit tests on other threads are charged too, but none of them
        // runs for long; time stolen from a virtual machine is not.
        assert!(slept < Duration::from_millis(10), "slept {slept:?}");
        assert!(worked >= Duration::from_millis(15), "worked {worked:?}");
    }
}
