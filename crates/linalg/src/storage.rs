use std::fmt;

/// Floats held in place, without a heap block: a `d = 2` covariance, so a
/// planar Gaussian summary (and any vector of up to four components)
/// allocates nothing.
pub(crate) const INLINE: usize = 4;

/// The element storage [`crate::Vector`] and [`crate::Matrix`] share: up to
/// [`INLINE`] floats in place, more in a `Vec`.
///
/// Only lengths above [`INLINE`] use the heap, so equal contents have equal
/// representations and a clone of a small value never allocates.
pub(crate) enum Storage {
    Inline { len: u8, buf: [f64; INLINE] },
    Heap(Vec<f64>),
}

impl Storage {
    /// `len` copies of `value`.
    pub(crate) fn filled(len: usize, value: f64) -> Self {
        if len <= INLINE {
            let mut buf = [0.0; INLINE];
            buf[..len].fill(value);
            Storage::Inline {
                len: len as u8,
                buf,
            }
        } else {
            Storage::Heap(vec![value; len])
        }
    }

    /// A copy of `data`.
    pub(crate) fn from_slice(data: &[f64]) -> Self {
        if data.len() <= INLINE {
            let mut buf = [0.0; INLINE];
            buf[..data.len()].copy_from_slice(data);
            Storage::Inline {
                len: data.len() as u8,
                buf,
            }
        } else {
            Storage::Heap(data.to_vec())
        }
    }

    /// Takes `data`'s block when it is too long to hold in place.
    pub(crate) fn from_vec(data: Vec<f64>) -> Self {
        if data.len() <= INLINE {
            Storage::from_slice(&data)
        } else {
            Storage::Heap(data)
        }
    }

    pub(crate) fn as_slice(&self) -> &[f64] {
        match self {
            Storage::Inline { len, buf } => &buf[..usize::from(*len)],
            Storage::Heap(data) => data,
        }
    }

    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        match self {
            Storage::Inline { len, buf } => &mut buf[..usize::from(*len)],
            Storage::Heap(data) => data,
        }
    }

    pub(crate) fn into_vec(self) -> Vec<f64> {
        match self {
            Storage::Inline { .. } => self.as_slice().to_vec(),
            Storage::Heap(data) => data,
        }
    }
}

impl FromIterator<f64> for Storage {
    /// Fills the inline buffer first and moves to the heap only when a
    /// fifth element arrives.
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut iter = iter.into_iter();
        let mut buf = [0.0; INLINE];
        for len in 0..INLINE {
            match iter.next() {
                Some(x) => buf[len] = x,
                None => {
                    return Storage::Inline {
                        len: len as u8,
                        buf,
                    }
                }
            }
        }
        let Some(next) = iter.next() else {
            return Storage::Inline {
                len: INLINE as u8,
                buf,
            };
        };
        let mut data = Vec::with_capacity(INLINE + 1 + iter.size_hint().0);
        data.extend_from_slice(&buf);
        data.push(next);
        data.extend(iter);
        Storage::Heap(data)
    }
}

impl Clone for Storage {
    fn clone(&self) -> Self {
        match self {
            Storage::Inline { len, buf } => Storage::Inline {
                len: *len,
                buf: *buf,
            },
            Storage::Heap(data) => Storage::Heap(data.clone()),
        }
    }

    /// Reuses the heap block when both sides have one, as `Vec::clone_from`
    /// does.
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Storage::Heap(data), Storage::Heap(from)) => data.clone_from(from),
            (this, _) => *this = source.clone(),
        }
    }
}

impl Default for Storage {
    fn default() -> Self {
        Storage::Inline {
            len: 0,
            buf: [0.0; INLINE],
        }
    }
}

impl PartialEq for Storage {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// Formats as the elements alone, as a `Vec<f64>` does.
impl fmt::Debug for Storage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_lengths_past_the_inline_size_use_the_heap() {
        for len in 0..=INLINE + 2 {
            let data: Vec<f64> = (0..len).map(|i| i as f64 - 1.5).collect();
            let built = [
                Storage::from_slice(&data),
                Storage::from_vec(data.clone()),
                data.iter().copied().collect(),
                Storage::filled(len, 0.25),
            ];
            for s in &built {
                assert_eq!(s.as_slice().len(), len);
                assert_eq!(matches!(s, Storage::Heap(_)), len > INLINE, "len {len}");
            }
            assert_eq!(built[0].as_slice(), &data[..]);
            assert_eq!(built[1], built[0]);
            assert_eq!(built[2], built[0]);
            assert_eq!(built[0].clone().into_vec(), data);
            assert!(built[3].as_slice().iter().all(|&x| x == 0.25));
        }
    }

    #[test]
    fn clone_from_crosses_representations() {
        let long = Storage::from_slice(&[1.0; INLINE + 3]);
        let short = Storage::from_slice(&[2.0, 3.0]);
        let mut s = Storage::filled(INLINE + 3, 0.0);
        s.clone_from(&long);
        assert_eq!(s, long);
        s.clone_from(&short);
        assert_eq!(s, short);
        s.clone_from(&long);
        assert_eq!(s, long);
    }
}
