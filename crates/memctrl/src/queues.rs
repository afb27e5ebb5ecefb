//! Per-bank indexed transaction queues.
//!
//! [`IndexedQueue`] stores queued demand transactions in arrival (FIFO)
//! order while simultaneously threading every entry onto an intrusive
//! per-bank list. Schedulers and event-horizon scans can therefore walk
//! *only* the entries of one bank (and ask "does bank `b` have demand?"
//! in O(1)) instead of filtering the whole queue per bank — the
//! O(queue × banks) pattern the flat `Vec<Entry>` scans forced.
//!
//! All links are slot indices into one slab, so enqueue and removal are
//! O(1) with no allocation after construction (slots are recycled
//! through a free list and the slab never exceeds the queue capacity).
//!
//! Ordering invariant: entries are pushed with non-decreasing `arrival`
//! stamps (the controller enqueues from a monotone clock), so "first in
//! FIFO order" and "oldest arrival, ties broken by queue position" agree
//! — schedulers rely on this to pick candidates per bank without
//! re-deriving global order.

use figaro_dram::{BankAddr, PhysAddr, RowId};

use crate::request::Request;

/// One queued demand transaction: the original request plus the decoded
/// bank coordinates and the serve location the cache engine chose
/// (which may differ from the decoded row when the request was
/// redirected into the in-DRAM cache).
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// The original request.
    pub req: Request,
    /// Decoded bank address.
    pub bank: BankAddr,
    /// Flat bank index within the channel.
    pub flat_bank: u32,
    /// Row that serves the request (post engine redirect).
    pub serve_row: RowId,
    /// Column that serves the request (post engine redirect).
    pub serve_col: u32,
    /// An activation was issued on behalf of this entry.
    pub saw_act: bool,
    /// A precharge (row conflict) was issued on behalf of this entry.
    pub saw_conflict: bool,
}

/// Sentinel for "no slot" in the intrusive links.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Slot {
    entry: Entry,
    /// Monotone enqueue sequence number (global age; smaller = older).
    seq: u64,
    prev: u32,
    next: u32,
    bank_prev: u32,
    bank_next: u32,
}

/// A FIFO transaction queue with intrusive per-bank index lists.
#[derive(Debug)]
pub struct IndexedQueue {
    slots: Vec<Option<Slot>>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    bank_head: Vec<u32>,
    bank_tail: Vec<u32>,
    bank_count: Vec<u32>,
    len: usize,
    next_seq: u64,
}

impl IndexedQueue {
    /// An empty queue for a channel with `banks` banks, sized for `cap`
    /// entries (the slab never grows beyond the high-water mark).
    #[must_use]
    pub fn new(banks: usize, cap: usize) -> Self {
        Self {
            slots: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            head: NIL,
            tail: NIL,
            bank_head: vec![NIL; banks],
            bank_tail: vec![NIL; banks],
            bank_count: vec![0; banks],
            len: 0,
            next_seq: 0,
        }
    }

    /// Number of queued entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of queued entries on `flat_bank` — O(1).
    #[must_use]
    pub fn bank_len(&self, flat_bank: u32) -> usize {
        self.bank_count[flat_bank as usize] as usize
    }

    /// Appends `entry`, returning its slot id.
    pub fn push_back(&mut self, entry: Entry) -> u32 {
        let b = entry.flat_bank as usize;
        debug_assert!(
            self.tail == NIL || self.slot(self.tail).entry.req.arrival <= entry.req.arrival,
            "entries must arrive in non-decreasing arrival order"
        );
        let slot = Slot {
            entry,
            seq: self.next_seq,
            prev: self.tail,
            next: NIL,
            bank_prev: self.bank_tail[b],
            bank_next: NIL,
        };
        self.next_seq += 1;
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = Some(slot);
                id
            }
            None => {
                self.slots.push(Some(slot));
                u32::try_from(self.slots.len() - 1).expect("queue capacity fits u32")
            }
        };
        if self.tail == NIL {
            self.head = id;
        } else {
            self.slot_mut(self.tail).next = id;
        }
        self.tail = id;
        if self.bank_tail[b] == NIL {
            self.bank_head[b] = id;
        } else {
            self.slot_mut(self.bank_tail[b]).bank_next = id;
        }
        self.bank_tail[b] = id;
        self.bank_count[b] += 1;
        self.len += 1;
        id
    }

    /// Unlinks and returns the entry in slot `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not name a live slot.
    pub fn remove(&mut self, id: u32) -> Entry {
        let slot = self.slots[id as usize].take().expect("remove of a live slot");
        if slot.prev == NIL {
            self.head = slot.next;
        } else {
            self.slot_mut(slot.prev).next = slot.next;
        }
        if slot.next == NIL {
            self.tail = slot.prev;
        } else {
            self.slot_mut(slot.next).prev = slot.prev;
        }
        let b = slot.entry.flat_bank as usize;
        if slot.bank_prev == NIL {
            self.bank_head[b] = slot.bank_next;
        } else {
            self.slot_mut(slot.bank_prev).bank_next = slot.bank_next;
        }
        if slot.bank_next == NIL {
            self.bank_tail[b] = slot.bank_prev;
        } else {
            self.slot_mut(slot.bank_next).bank_prev = slot.bank_prev;
        }
        self.bank_count[b] -= 1;
        self.len -= 1;
        self.free.push(id);
        slot.entry
    }

    fn slot(&self, id: u32) -> &Slot {
        self.slots[id as usize].as_ref().expect("live slot")
    }

    fn slot_mut(&mut self, id: u32) -> &mut Slot {
        self.slots[id as usize].as_mut().expect("live slot")
    }

    /// The entry in slot `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not name a live slot.
    #[must_use]
    pub fn entry(&self, id: u32) -> &Entry {
        &self.slot(id).entry
    }

    /// Mutable access to the entry in slot `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not name a live slot.
    pub fn entry_mut(&mut self, id: u32) -> &mut Entry {
        &mut self.slot_mut(id).entry
    }

    /// Global age of the entry in slot `id` (smaller = enqueued earlier).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not name a live slot.
    #[must_use]
    pub fn seq(&self, id: u32) -> u64 {
        self.slot(id).seq
    }

    /// Slot id of the oldest entry, if any.
    #[must_use]
    pub fn head_id(&self) -> Option<u32> {
        (self.head != NIL).then_some(self.head)
    }

    /// Iterates `(slot id, entry)` in global FIFO order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Entry)> {
        QueueIter { q: self, cur: self.head, bank: false }
    }

    /// Iterates `(slot id, entry)` of `flat_bank` in FIFO order.
    pub fn iter_bank(&self, flat_bank: u32) -> impl Iterator<Item = (u32, &Entry)> {
        QueueIter { q: self, cur: self.bank_head[flat_bank as usize], bank: true }
    }

    /// Flat indices of the banks that currently have queued entries.
    pub fn touched_banks(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.bank_count.len() as u32).filter(|&b| self.bank_count[b as usize] > 0)
    }

    /// Whether any queued entry matches `addr` at cache-block granularity
    /// on `flat_bank` (the read-around-write forwarding probe: a block
    /// maps to exactly one bank, so only that bank's bucket is scanned).
    #[must_use]
    pub fn bank_has_block(&self, flat_bank: u32, addr: PhysAddr) -> bool {
        let block = Request::block_of(addr);
        self.iter_bank(flat_bank).any(|(_, e)| Request::block_of(e.req.addr) == block)
    }
}

struct QueueIter<'a> {
    q: &'a IndexedQueue,
    cur: u32,
    bank: bool,
}

impl<'a> Iterator for QueueIter<'a> {
    type Item = (u32, &'a Entry);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur == NIL {
            return None;
        }
        let id = self.cur;
        let slot = self.q.slot(id);
        self.cur = if self.bank { slot.bank_next } else { slot.next };
        Some((id, &slot.entry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use figaro_dram::Cycle;

    fn entry(id: u64, flat_bank: u32, row: u32, arrival: Cycle) -> Entry {
        Entry {
            req: Request { id, addr: PhysAddr(id * 64), is_write: false, core: 0, arrival },
            bank: BankAddr { rank: 0, bankgroup: 0, bank: flat_bank },
            flat_bank,
            serve_row: row,
            serve_col: 0,
            saw_act: false,
            saw_conflict: false,
        }
    }

    #[test]
    fn fifo_order_is_preserved_globally_and_per_bank() {
        let mut q = IndexedQueue::new(4, 8);
        for (i, b) in [(0u64, 0u32), (1, 1), (2, 0), (3, 2), (4, 0)] {
            q.push_back(entry(i, b, 0, i));
        }
        let global: Vec<u64> = q.iter().map(|(_, e)| e.req.id).collect();
        assert_eq!(global, vec![0, 1, 2, 3, 4]);
        let bank0: Vec<u64> = q.iter_bank(0).map(|(_, e)| e.req.id).collect();
        assert_eq!(bank0, vec![0, 2, 4]);
        assert_eq!(q.bank_len(0), 3);
        assert_eq!(q.bank_len(3), 0);
        assert_eq!(q.touched_banks().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn removal_relinks_both_lists_and_recycles_slots() {
        let mut q = IndexedQueue::new(2, 4);
        let ids: Vec<u32> = (0..4).map(|i| q.push_back(entry(i, (i % 2) as u32, 0, i))).collect();
        let removed = q.remove(ids[2]);
        assert_eq!(removed.req.id, 2);
        assert_eq!(q.iter().map(|(_, e)| e.req.id).collect::<Vec<_>>(), vec![0, 1, 3]);
        assert_eq!(q.iter_bank(0).map(|(_, e)| e.req.id).collect::<Vec<_>>(), vec![0]);
        // The freed slot is recycled; order and seq stay coherent.
        let new_id = q.push_back(entry(9, 0, 0, 9));
        assert_eq!(new_id, ids[2], "slab slot must be recycled");
        assert_eq!(q.iter().map(|(_, e)| e.req.id).collect::<Vec<_>>(), vec![0, 1, 3, 9]);
        assert!(q.seq(new_id) > q.seq(ids[3]), "recycled slot gets a fresh seq");
        // Drain everything through the head.
        while let Some(h) = q.head_id() {
            q.remove(h);
        }
        assert!(q.is_empty());
        assert_eq!(q.bank_len(0), 0);
        assert_eq!(q.bank_len(1), 0);
    }

    #[test]
    fn block_probe_matches_sub_block_offsets() {
        let mut q = IndexedQueue::new(2, 4);
        let mut e = entry(1, 0, 0, 0);
        e.req.addr = PhysAddr(4096);
        q.push_back(e);
        assert!(q.bank_has_block(0, PhysAddr(4096)));
        assert!(q.bank_has_block(0, PhysAddr(4100)), "sub-block offset must match");
        assert!(!q.bank_has_block(0, PhysAddr(4160)));
        assert!(!q.bank_has_block(1, PhysAddr(4096)));
    }
}
