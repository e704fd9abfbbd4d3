//! Offline stand-in for `rayon` 1.10: just enough surface for
//! `pj2k-parutil` and `pj2k-core` to type-check without a registry.
//! Nothing here does work. The benchmark only drives the CLI's default
//! pool backend (`--backend pool`, `Exec::threads`), which never reaches
//! this crate; if a code path does, it panics so that no benchmark number
//! can come from stub code.

use std::marker::PhantomData;

fn reached() -> ! {
    panic!("benchmark shim reached: rayon is a type-check stub (use --backend pool)")
}

pub mod prelude {
    pub use crate::IntoParallelRefIterator;
}

/// Stand-in for every rayon parallel-iterator adaptor.
pub struct Par<T>(PhantomData<T>);

impl<T> Par<T> {
    pub fn map<R, F: Fn(T) -> R>(self, _f: F) -> Par<R> {
        reached()
    }
    pub fn map_init<S, R, I: Fn() -> S, F: Fn(&mut S, T) -> R>(self, _init: I, _f: F) -> Par<R> {
        reached()
    }
    pub fn collect<C: FromIterator<T>>(self) -> C {
        reached()
    }
}

pub trait IntoParallelRefIterator<'a> {
    type Item;
    fn par_iter(&'a self) -> Par<Self::Item>;
}

impl<'a, T: 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> Par<&'a T> {
        reached()
    }
}

#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("benchmark shim reached: rayon thread pool")
    }
}

#[derive(Default)]
pub struct ThreadPoolBuilder;

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        reached()
    }
    pub fn num_threads(self, _n: usize) -> Self {
        reached()
    }
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        reached()
    }
}

pub struct ThreadPool;

impl ThreadPool {
    pub fn install<R, OP: FnOnce() -> R>(&self, _op: OP) -> R {
        reached()
    }
}

pub struct Scope<'scope>(PhantomData<&'scope ()>);

impl<'scope> Scope<'scope> {
    pub fn spawn<F: FnOnce(&Scope<'scope>) + Send + 'scope>(&self, _f: F) {
        reached()
    }
}

pub fn scope<'scope, R, OP: FnOnce(&Scope<'scope>) -> R>(_op: OP) -> R {
    reached()
}
