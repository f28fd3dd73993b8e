//! The ball traversal (paper Algorithm 7), written apart from the engine's
//! `TraversalState`: the paths come from an odometer of their own, and a
//! retrace undoes the logged moves of the traversal before it, last first,
//! instead of replaying its paths.

use nochatter::graph::Port;
use nochatter::sim::walk::Traversal;

/// A traversal under way by the rule of [`Traversal`], stepped on each
/// arrival.
pub struct RefTraversal {
    /// The description, less the engine's state a retrace carries: the
    /// reference undoes its own log instead.
    traversal: Traversal,
    retrace: bool,
    /// The path being walked; `None` once every path has been walked.
    path: Option<Vec<u32>>,
    /// The entry ports of the moves out along `path` that went through.
    out: Vec<Port>,
    /// Walking back to the start node.
    returning: bool,
    /// The entry port of every move that went through, in order.
    log: Vec<Port>,
    /// A retrace's moves still to make, the next one last.
    undo: Vec<Port>,
    /// The latest attempted move, and whether it went out along `path`.
    attempt: Option<(Port, bool)>,
}

impl RefTraversal {
    /// Starts `traversal`; a retrace undoes the moves of `before`, the
    /// traversal before it.
    pub fn start(traversal: Traversal, before: Option<&RefTraversal>) -> Self {
        let retrace = traversal.retrace.is_some();
        let undo = if retrace {
            before.expect("a retrace follows a traversal").log.clone()
        } else {
            Vec::new()
        };
        RefTraversal {
            path: Some(vec![0; traversal.radius as usize]),
            traversal: Traversal {
                retrace: None,
                ..traversal
            },
            retrace,
            out: Vec::new(),
            returning: false,
            log: Vec::new(),
            undo,
            attempt: None,
        }
    }

    /// The slow wait before each move.
    pub fn wait(&self) -> u64 {
        self.traversal.wait
    }

    /// The next move on a node of `degree` entered by `entry`, after the
    /// latest attempt (`blocked` if its edge was absent): `Ok(port)`, or
    /// `Err(completed)` once the traversal has ended.
    pub fn step(&mut self, degree: u32, entry: Option<Port>, blocked: bool) -> Result<Port, bool> {
        if let Some((port, out)) = self.attempt.take() {
            if blocked {
                self.attempt = Some((port, out));
                return Ok(port);
            }
            let entry = entry.expect("a move enters by a port");
            self.log.push(entry);
            if out {
                self.out.push(entry);
            }
        }
        let next = self.decide(degree);
        if let Ok(port) = next {
            self.attempt = Some((port, !self.returning && !self.retrace));
        }
        next
    }

    fn decide(&mut self, degree: u32) -> Result<Port, bool> {
        if self.retrace {
            return self.undo.pop().ok_or(true);
        }
        loop {
            let Some(path) = self.path.as_mut() else {
                return Err(true);
            };
            if !self.returning {
                if degree >= self.traversal.abort_degree {
                    return Err(false);
                }
                match path.get(self.out.len()) {
                    Some(&p) if p < degree => return Ok(Port::new(p)),
                    _ => self.returning = true,
                }
            }
            if let Some(back) = self.out.pop() {
                return Ok(back);
            }
            // On the start node: the next path, if any.
            let alpha = self.traversal.alpha;
            let advanced = path.iter_mut().rev().any(|d| {
                *d += 1;
                if *d == alpha {
                    *d = 0;
                }
                *d != 0
            });
            if !advanced {
                self.path = None;
            }
            self.returning = false;
        }
    }
}
