//! Offline stand-in for `crossbeam-channel` 0.5: the surface
//! `pj2k_parutil::WorkerPool` needs to type-check. The codec's production
//! paths (`pool_map_with_state`, `pool_run`, `Exec::threads`) use scoped
//! std threads and never construct a `WorkerPool`; if something does,
//! it panics so that no benchmark number can come from stub code.

use std::marker::PhantomData;

fn reached() -> ! {
    panic!("benchmark shim reached: crossbeam-channel is a type-check stub")
}

pub struct Sender<T>(PhantomData<T>);
pub struct Receiver<T>(PhantomData<T>);
pub struct IntoIter<T>(PhantomData<T>);

pub struct SendError<T>(pub T);

impl<T> std::fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SendError(..)")
    }
}

pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    reached()
}

impl<T> Sender<T> {
    pub fn send(&self, _msg: T) -> Result<(), SendError<T>> {
        reached()
    }
}

impl<T> Iterator for IntoIter<T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        reached()
    }
}

impl<T> IntoIterator for Receiver<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;
    fn into_iter(self) -> IntoIter<T> {
        reached()
    }
}
