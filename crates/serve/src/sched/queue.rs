//! The pre-refactor bounded FIFO admission queue, bit-for-bit.

use std::collections::VecDeque;

use super::{Request, SchedPolicy};

/// One bounded queue in strict arrival order: admit while depth is below
/// capacity, drop on overflow, offer requests exactly as they arrived.
/// This is the scheduler the simulator had baked in before the `sched`
/// extraction — the *Fifo-equivalence invariant* ([module docs](super))
/// holds because every trait call maps one-to-one onto the old
/// `VecDeque` operation.
#[derive(Debug)]
pub struct Fifo {
    queue: VecDeque<Request>,
    capacity: usize,
}

impl Fifo {
    /// A FIFO queue admitting at most `capacity` requests.
    pub fn new(capacity: usize) -> Self {
        Fifo {
            queue: VecDeque::new(),
            capacity,
        }
    }
}

impl SchedPolicy for Fifo {
    fn admit(&mut self, request: Request) -> bool {
        if self.queue.len() >= self.capacity {
            return false;
        }
        self.queue.push_back(request);
        true
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn scan(&mut self) -> &[Request] {
        // No copy: the ring buffer is rotated in place (amortized free —
        // a bounded queue that has wrapped stays contiguous until the
        // head moves again), exactly matching the pre-refactor borrow.
        self.queue.make_contiguous()
    }

    fn take(&mut self, position: usize) -> Request {
        self.queue
            .remove(position)
            .expect("take position within the queue")
    }

    fn expire(&mut self, now: f64, deadlines: &[Option<f64>], expired: &mut Vec<Request>) {
        // Deadlines differ per tenant, so dead requests are interleaved
        // with live ones — a full pass, preserving relative order.
        let mut i = 0;
        while i < self.queue.len() {
            let rq = self.queue[i];
            match deadlines[rq.tenant] {
                Some(d) if now - rq.arrival_secs > d => {
                    expired.push(self.queue.remove(i).expect("index in bounds"));
                }
                _ => i += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rq(tenant: usize, at: f64) -> Request {
        Request {
            tenant,
            arrival_secs: at,
        }
    }

    #[test]
    fn admits_in_order_and_drops_on_overflow() {
        let mut q = Fifo::new(2);
        assert!(q.admit(rq(0, 1.0)));
        assert!(q.admit(rq(1, 2.0)));
        assert!(!q.admit(rq(2, 3.0)), "overflow drops");
        assert_eq!(q.len(), 2);
        let order: Vec<usize> = q.scan().iter().map(|r| r.tenant).collect();
        assert_eq!(order, vec![0, 1], "strict arrival order");
    }

    #[test]
    fn take_removes_by_position() {
        let mut q = Fifo::new(8);
        for i in 0..4 {
            q.admit(rq(i, i as f64));
        }
        q.scan();
        assert_eq!(q.take(2).tenant, 2, "mid-queue take (reconfig batching)");
        let order: Vec<usize> = q.scan().iter().map(|r| r.tenant).collect();
        assert_eq!(order, vec![0, 1, 3]);
        assert_eq!(q.take(0).tenant, 0);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn expire_removes_interleaved_dead_requests_preserving_order() {
        let mut q = Fifo::new(8);
        // Tenant 0 has a 1 s deadline, tenant 1 none.
        q.admit(rq(0, 0.0)); // dead at t=2
        q.admit(rq(1, 0.5)); // immortal
        q.admit(rq(0, 1.5)); // still live at t=2 (0.5 s old)
        let deadlines = vec![Some(1.0), None];
        let mut expired = Vec::new();
        q.expire(2.5, &deadlines, &mut expired);
        assert_eq!(expired, vec![rq(0, 0.0)]);
        let order: Vec<f64> = q.scan().iter().map(|r| r.arrival_secs).collect();
        assert_eq!(order, vec![0.5, 1.5], "survivors keep arrival order");
    }

    #[test]
    fn expire_is_exclusive_at_the_deadline_instant() {
        let mut q = Fifo::new(4);
        q.admit(rq(0, 0.0));
        let mut expired = Vec::new();
        // Exactly at the deadline the request is still servable.
        q.expire(1.0, &[Some(1.0)], &mut expired);
        assert!(expired.is_empty());
        q.expire(1.0 + 1e-9, &[Some(1.0)], &mut expired);
        assert_eq!(expired.len(), 1);
        assert!(q.is_empty());
    }
}
