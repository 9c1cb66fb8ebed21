//! Name interning for the tree-walking interpreter's scope stack: variable
//! resolution inside the oracle is one hash followed by integer
//! comparisons instead of repeated string compares per scope level.

use std::collections::HashMap;

/// A string-to-`u32` interner with stable ids.
#[derive(Debug, Clone, Default)]
pub(crate) struct Interner {
    index: HashMap<String, u32>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// The id for `name`, allocating one on first sight.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.index.len() as u32;
        self.index.insert(name.to_owned(), i);
        i
    }

    /// The id for `name`, if it was ever interned.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.index.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stable() {
        let mut i = Interner::new();
        let a = i.intern("alpha");
        let b = i.intern("beta");
        assert_ne!(a, b);
        assert_eq!(i.intern("alpha"), a);
        assert_eq!(i.get("alpha"), Some(a));
        assert_eq!(i.get("gamma"), None);
    }
}
