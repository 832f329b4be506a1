//! A [`MatmulBackend`] decorator that records one span per backend call.
//!
//! Installed with `Dense::set_backend`, it forwards every trait method to
//! the wrapped backend unchanged, so the arithmetic is the wrapped
//! backend's own. The span name says which layer kind the backend serves
//! and which product of the layer it computes: the traced step marks the
//! forward pass and the backward pass on its thread, and inside a
//! backward pass `Dense::backward` computes `dW` first and `dX` second.

use crate::trace;
use apa_gemm::{Mat, MatMut, MatRef};
use apa_nn::{Backend, MatmulBackend};
use std::cell::Cell;
use std::sync::Arc;

/// What the calling thread is doing, as set by the traced step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Not inside a marked pass (inference, warm-up).
    Other,
    Forward,
    /// Inside `Dense::backward`; counts the products issued so far.
    Backward(u8),
}

thread_local! {
    static ROLE: Cell<Role> = const { Cell::new(Role::Other) };
}

pub fn set_role(role: Role) {
    ROLE.with(|r| r.set(role));
}

/// The role of the next product, advancing the backward counter.
fn next_role() -> Role {
    ROLE.with(|r| {
        let role = r.get();
        if let Role::Backward(i) = role {
            r.set(Role::Backward(i.saturating_add(1)));
        }
        role
    })
}

/// Span names for one layer kind: forward, dW, dX, other.
#[derive(Clone, Copy, Debug)]
pub struct Names {
    pub fwd: &'static str,
    pub dw: &'static str,
    pub dx: &'static str,
    pub other: &'static str,
}

pub const HIDDEN: Names = Names {
    fwd: "backend.hidden.fwd",
    dw: "backend.hidden.dw",
    dx: "backend.hidden.dx",
    other: "backend.hidden",
};

pub const EDGE: Names = Names {
    fwd: "backend.edge.fwd",
    dw: "backend.edge.dw",
    dx: "backend.edge.dx",
    other: "backend.edge",
};

pub const SERVE: Names = Names {
    fwd: "backend.serve",
    dw: "backend.serve",
    dx: "backend.serve",
    other: "backend.serve",
};

pub struct Traced {
    inner: Backend,
    names: Names,
}

impl Traced {
    pub fn wrap(inner: Backend, names: Names) -> Backend {
        Arc::new(Traced { inner, names })
    }

    fn name_for_call(&self) -> &'static str {
        match next_role() {
            Role::Forward => self.names.fwd,
            Role::Backward(0) => self.names.dw,
            Role::Backward(1) => self.names.dx,
            _ => self.names.other,
        }
    }
}

impl MatmulBackend for Traced {
    fn matmul_into(&self, a: MatRef<'_, f32>, b: MatRef<'_, f32>, c: MatMut<'_, f32>) {
        trace::span(self.name_for_call(), || self.inner.matmul_into(a, b, c));
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn matmul(&self, a: MatRef<'_, f32>, b: MatRef<'_, f32>) -> Mat<f32> {
        trace::span(self.name_for_call(), || self.inner.matmul(a, b))
    }

    fn matmul_tn(&self, a: MatRef<'_, f32>, b: MatRef<'_, f32>) -> Mat<f32> {
        trace::span(self.name_for_call(), || self.inner.matmul_tn(a, b))
    }

    fn matmul_nt(&self, a: MatRef<'_, f32>, b: MatRef<'_, f32>) -> Mat<f32> {
        trace::span(self.name_for_call(), || self.inner.matmul_nt(a, b))
    }

    fn warm(&self, shapes: &[(usize, usize, usize)]) {
        self.inner.warm(shapes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Logs which method ran; each product returns a tag matrix so a
    /// test can tell the wrapped backend's result arrived unchanged.
    #[derive(Default)]
    struct Recorder {
        log: Mutex<Vec<&'static str>>,
    }

    impl Recorder {
        fn note(&self, what: &'static str) {
            self.log.lock().unwrap().push(what);
        }
    }

    impl MatmulBackend for Recorder {
        fn matmul_into(&self, _a: MatRef<'_, f32>, _b: MatRef<'_, f32>, mut c: MatMut<'_, f32>) {
            self.note("matmul_into");
            c.fill(1.0);
        }
        fn name(&self) -> String {
            self.note("name");
            "recorder".into()
        }
        fn matmul(&self, a: MatRef<'_, f32>, b: MatRef<'_, f32>) -> Mat<f32> {
            self.note("matmul");
            Mat::from_fn(a.rows(), b.cols(), |_, _| 2.0)
        }
        fn matmul_tn(&self, a: MatRef<'_, f32>, b: MatRef<'_, f32>) -> Mat<f32> {
            self.note("matmul_tn");
            Mat::from_fn(a.cols(), b.cols(), |_, _| 3.0)
        }
        fn matmul_nt(&self, a: MatRef<'_, f32>, b: MatRef<'_, f32>) -> Mat<f32> {
            self.note("matmul_nt");
            Mat::from_fn(a.rows(), b.rows(), |_, _| 4.0)
        }
        fn warm(&self, _shapes: &[(usize, usize, usize)]) {
            self.note("warm");
        }
    }

    #[test]
    fn decorator_forwards_every_backend_method() {
        let rec = Arc::new(Recorder::default());
        let traced = Traced::wrap(rec.clone(), HIDDEN);
        let a = Mat::<f32>::zeros(2, 3);
        let b = Mat::<f32>::zeros(3, 4);
        let bt = Mat::<f32>::zeros(4, 3);
        let at = Mat::<f32>::zeros(3, 2);

        let mut c = Mat::<f32>::zeros(2, 4);
        traced.matmul_into(a.as_ref(), b.as_ref(), c.as_mut());
        assert!(c.as_slice().iter().all(|&v| v == 1.0));
        assert!(traced
            .matmul(a.as_ref(), b.as_ref())
            .as_slice()
            .iter()
            .all(|&v| v == 2.0));
        let tn = traced.matmul_tn(at.as_ref(), b.as_ref());
        assert_eq!((tn.rows(), tn.cols()), (2, 4));
        assert!(tn.as_slice().iter().all(|&v| v == 3.0));
        let nt = traced.matmul_nt(a.as_ref(), bt.as_ref());
        assert!(nt.as_slice().iter().all(|&v| v == 4.0));
        traced.warm(&[(2, 3, 4)]);
        assert_eq!(traced.name(), "recorder");

        assert_eq!(
            *rec.log.lock().unwrap(),
            [
                "matmul_into",
                "matmul",
                "matmul_tn",
                "matmul_nt",
                "warm",
                "name"
            ]
        );
    }

    #[test]
    fn backward_products_are_named_dw_then_dx() {
        let traced = Traced {
            inner: Arc::new(Recorder::default()),
            names: HIDDEN,
        };
        set_role(Role::Forward);
        assert_eq!(traced.name_for_call(), HIDDEN.fwd);
        set_role(Role::Backward(0));
        assert_eq!(traced.name_for_call(), HIDDEN.dw);
        assert_eq!(traced.name_for_call(), HIDDEN.dx);
        assert_eq!(traced.name_for_call(), HIDDEN.other);
        set_role(Role::Other);
    }
}
