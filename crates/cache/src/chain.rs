//! A slab-backed doubly-linked LRU chain.
//!
//! LRU, L, LIX and 2Q need O(1) move-to-front, O(1) eviction from the
//! back, and O(1) membership lookup. This chain stores nodes in a `Vec`
//! slab with index links (no per-node allocation, no unsafe) and finds a
//! page's slab slot through a dense table indexed by page id: `NIL` marks
//! an absent page, and the table grows on demand to the largest page id
//! pushed. Page ids are dense in a broadcast (`0..num_pages`), so the
//! table costs four bytes per page and a lookup is one array load.

use bdisk_sched::PageId;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    page: PageId,
    prev: u32,
    next: u32,
}

/// Doubly-linked list of pages, most recently used at the front.
#[derive(Debug, Clone)]
pub struct LruChain {
    nodes: Vec<Node>,
    free: Vec<u32>,
    /// Slab slot of each page, `NIL` when the page is not in the chain.
    slot_of: Vec<u32>,
    len: usize,
    head: u32,
    tail: u32,
}

impl Default for LruChain {
    fn default() -> Self {
        Self::new()
    }
}

impl LruChain {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            free: Vec::new(),
            slot_of: Vec::new(),
            len: 0,
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of pages in the chain.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the chain holds no pages.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when `page` is in the chain.
    pub fn contains(&self, page: PageId) -> bool {
        self.slot(page) != NIL
    }

    /// The slab slot of `page`, `NIL` when absent.
    #[inline]
    fn slot(&self, page: PageId) -> u32 {
        self.slot_of.get(page.index()).copied().unwrap_or(NIL)
    }

    /// Pushes `page` at the front (most recently used).
    ///
    /// # Panics
    ///
    /// Panics if `page` is already present.
    pub fn push_front(&mut self, page: PageId) {
        assert!(!self.contains(page), "page {page} already in chain");
        let slot = match self.free.pop() {
            Some(s) => {
                self.nodes[s as usize] = Node {
                    page,
                    prev: NIL,
                    next: self.head,
                };
                s
            }
            None => {
                self.nodes.push(Node {
                    page,
                    prev: NIL,
                    next: self.head,
                });
                (self.nodes.len() - 1) as u32
            }
        };
        if self.head != NIL {
            self.nodes[self.head as usize].prev = slot;
        } else {
            self.tail = slot;
        }
        self.head = slot;
        if page.index() >= self.slot_of.len() {
            self.slot_of.resize(page.index() + 1, NIL);
        }
        self.slot_of[page.index()] = slot;
        self.len += 1;
    }

    /// Moves `page` to the front. Returns `false` if absent.
    pub fn move_to_front(&mut self, page: PageId) -> bool {
        let slot = self.slot(page);
        if slot == NIL {
            return false;
        }
        if self.head == slot {
            return true;
        }
        self.unlink(slot);
        let node = &mut self.nodes[slot as usize];
        node.prev = NIL;
        node.next = self.head;
        self.nodes[self.head as usize].prev = slot;
        self.head = slot;
        true
    }

    /// The page at the back (least recently used).
    pub fn back(&self) -> Option<PageId> {
        (self.tail != NIL).then(|| self.nodes[self.tail as usize].page)
    }

    /// Removes and returns the least recently used page.
    pub fn pop_back(&mut self) -> Option<PageId> {
        let page = self.back()?;
        self.remove(page);
        Some(page)
    }

    /// Removes `page` from the chain. Returns `false` if absent.
    pub fn remove(&mut self, page: PageId) -> bool {
        let slot = self.slot(page);
        if slot == NIL {
            return false;
        }
        self.slot_of[page.index()] = NIL;
        self.len -= 1;
        self.unlink(slot);
        self.free.push(slot);
        true
    }

    /// Iterates pages from most to least recently used.
    pub fn iter(&self) -> impl Iterator<Item = PageId> + '_ {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let node = &self.nodes[cur as usize];
            cur = node.next;
            Some(node.page)
        })
    }

    /// Detaches `slot` from its neighbours, fixing head/tail.
    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pages(chain: &LruChain) -> Vec<u32> {
        chain.iter().map(|p| p.0).collect()
    }

    #[test]
    fn push_and_order() {
        let mut c = LruChain::new();
        c.push_front(PageId(1));
        c.push_front(PageId(2));
        c.push_front(PageId(3));
        assert_eq!(pages(&c), vec![3, 2, 1]);
        assert_eq!(c.back(), Some(PageId(1)));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn move_to_front_reorders() {
        let mut c = LruChain::new();
        for i in 1..=3 {
            c.push_front(PageId(i));
        }
        assert!(c.move_to_front(PageId(1)));
        assert_eq!(pages(&c), vec![1, 3, 2]);
        assert_eq!(c.back(), Some(PageId(2)));
        // Front element is a no-op.
        assert!(c.move_to_front(PageId(1)));
        assert_eq!(pages(&c), vec![1, 3, 2]);
        // Absent element.
        assert!(!c.move_to_front(PageId(9)));
    }

    #[test]
    fn pop_back_is_lru_eviction() {
        let mut c = LruChain::new();
        for i in 1..=3 {
            c.push_front(PageId(i));
        }
        c.move_to_front(PageId(1));
        assert_eq!(c.pop_back(), Some(PageId(2)));
        assert_eq!(c.pop_back(), Some(PageId(3)));
        assert_eq!(c.pop_back(), Some(PageId(1)));
        assert_eq!(c.pop_back(), None);
        assert!(c.is_empty());
    }

    #[test]
    fn remove_middle() {
        let mut c = LruChain::new();
        for i in 1..=4 {
            c.push_front(PageId(i));
        }
        assert!(c.remove(PageId(3)));
        assert_eq!(pages(&c), vec![4, 2, 1]);
        assert!(!c.remove(PageId(3)));
        assert!(!c.contains(PageId(3)));
    }

    #[test]
    fn slots_are_reused() {
        let mut c = LruChain::new();
        for i in 0..100 {
            c.push_front(PageId(i));
        }
        for i in 0..100 {
            assert!(c.remove(PageId(i)));
        }
        for i in 100..200 {
            c.push_front(PageId(i));
        }
        // The slab should not have grown past the first 100 nodes.
        assert!(c.nodes.len() <= 100, "slab grew to {}", c.nodes.len());
        assert_eq!(c.len(), 100);
    }

    #[test]
    fn single_element_edge_cases() {
        let mut c = LruChain::new();
        c.push_front(PageId(7));
        assert_eq!(c.back(), Some(PageId(7)));
        assert!(c.move_to_front(PageId(7)));
        assert_eq!(c.pop_back(), Some(PageId(7)));
        assert_eq!(c.back(), None);
        // Reuse after emptying.
        c.push_front(PageId(8));
        assert_eq!(pages(&c), vec![8]);
    }

    #[test]
    #[should_panic(expected = "already in chain")]
    fn duplicate_push_panics() {
        let mut c = LruChain::new();
        c.push_front(PageId(1));
        c.push_front(PageId(1));
    }

    #[test]
    fn interleaved_stress() {
        // Mirror operations against a Vec model.
        let mut c = LruChain::new();
        let mut model: Vec<u32> = Vec::new(); // front = MRU
        let mut x = 12345u64;
        let mut rand = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as u32
        };
        for _ in 0..10_000 {
            let op = rand() % 4;
            let page = rand() % 50;
            match op {
                0 => {
                    if !model.contains(&page) {
                        c.push_front(PageId(page));
                        model.insert(0, page);
                    }
                }
                1 => {
                    let ok = c.move_to_front(PageId(page));
                    let pos = model.iter().position(|&p| p == page);
                    assert_eq!(ok, pos.is_some());
                    if let Some(i) = pos {
                        model.remove(i);
                        model.insert(0, page);
                    }
                }
                2 => {
                    let got = c.pop_back();
                    let want = model.pop();
                    assert_eq!(got.map(|p| p.0), want);
                }
                _ => {
                    let ok = c.remove(PageId(page));
                    let pos = model.iter().position(|&p| p == page);
                    assert_eq!(ok, pos.is_some());
                    if let Some(i) = pos {
                        model.remove(i);
                    }
                }
            }
            assert_eq!(c.len(), model.len());
            assert_eq!(pages(&c), model);
        }
    }
}
