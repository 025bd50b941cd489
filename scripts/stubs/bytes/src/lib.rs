//! In-tree stand-in for `bytes::Bytes`: an Arc-backed immutable byte slice
//! with the handful of methods this workspace calls. Deleted by ROADMAP
//! item 3.
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub fn new() -> Self {
        Bytes {
            data: Arc::from(&[][..]),
            start: 0,
            end: 0,
        }
    }

    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.end - self.start;
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(lo <= hi && hi <= len, "slice out of range");
        Bytes {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Append `other` in O(1) when it starts where `self` ends in the same
    /// buffer — the case the real crate's `BytesMut::unsplit` absorbs
    /// without copying. Otherwise `other` comes back untouched.
    pub fn try_unsplit(&mut self, other: Bytes) -> Result<(), Bytes> {
        if Arc::ptr_eq(&self.data, &other.data) && self.end == other.start {
            self.end = other.end;
            Ok(())
        } else {
            Err(other)
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes {
            data: Arc::from(v.into_boxed_slice()),
            start: 0,
            end: len,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"{} bytes\"", self.len())
    }
}
