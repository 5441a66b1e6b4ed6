// Package posmap holds the two control-layer lookup structures the
// paper keeps inside the secure shelter: the standalone Path ORAM's
// position map (logical block → leaf) and H-ORAM's permutation list
// (logical block → current tier and slot, plus the touched bit that
// enforces the square-root "each storage block read at most once per
// period" invariant). The list is the one record of where a block
// lives: a storage slot, a leaf of the memory tree (H-ORAM's tree
// keeps no position map of its own), or — while a shuffle is in
// flight — an index into the shuffle's trusted pool (TierPool).
package posmap

import (
	"fmt"

	"repro/internal/blockcipher"
	"repro/internal/ctops"
)

// NoLeaf marks an address whose block is not currently mapped into the
// tree: a position-map entry, or the Leaf of a list entry outside the
// memory tier.
const NoLeaf = int64(-1)

// PositionMap maps logical block addresses to Path ORAM leaves.
type PositionMap struct {
	// The leaf assignments are secret: leaking which leaf an address
	// maps to is leaking the very path identity ORAM randomizes.
	//
	//horam:secret
	leaves []int64
	nLeaf  int64
	ct     bool
}

// NewPositionMap creates a map for `blocks` addresses over a tree with
// nLeaf leaves. All entries start unmapped (NoLeaf). The map draws no
// leaves: the tree remaps a block and its caller Sets the new leaf.
func NewPositionMap(blocks, nLeaf int64) (*PositionMap, error) {
	if blocks <= 0 {
		return nil, fmt.Errorf("posmap: block count must be positive, got %d", blocks)
	}
	if nLeaf <= 0 {
		return nil, fmt.Errorf("posmap: leaf count must be positive, got %d", nLeaf)
	}
	leaves := make([]int64, blocks)
	for i := range leaves {
		leaves[i] = NoLeaf
	}
	return &PositionMap{leaves: leaves, nLeaf: nLeaf}, nil
}

// Size returns the number of addresses.
func (m *PositionMap) Size() int64 { return int64(len(m.leaves)) }

// Leaves returns the number of leaves a position may name.
func (m *PositionMap) Leaves() int64 { return m.nLeaf }

func (m *PositionMap) check(addr int64) error {
	if addr < 0 || addr >= int64(len(m.leaves)) {
		return fmt.Errorf("posmap: address %d out of range [0,%d)", addr, len(m.leaves))
	}
	return nil
}

// SetConstantTime switches the map's lookup discipline. When on,
// Get and Set stop indexing the leaf array by address — a
// secret-dependent memory access a co-located adversary can observe
// through the cache — and instead run one full-length fixed-order scan
// per call with branchless selects, so the touch sequence depends only
// on the map's public size. Results are identical in both modes.
func (m *PositionMap) SetConstantTime(on bool) { m.ct = on }

// ConstantTime reports whether the scan discipline is active.
func (m *PositionMap) ConstantTime() bool { return m.ct }

// ctGet scans the whole leaf array for addr's entry.
//
//horam:constant-time
//horam:secret addr
func (m *PositionMap) ctGet(addr int64) int64 {
	leaf := NoLeaf
	for j := range m.leaves {
		mm := ctops.Eq64(int64(j), addr)
		leaf = ctops.Select64(mm, m.leaves[j], leaf)
	}
	return leaf
}

// ctSet writes leaf into addr's entry via a masked full-length pass.
//
//horam:constant-time
//horam:secret addr leaf
func (m *PositionMap) ctSet(addr, leaf int64) {
	for j := range m.leaves {
		mm := ctops.Eq64(int64(j), addr)
		m.leaves[j] = ctops.Select64(mm, leaf, m.leaves[j])
	}
}

// Get returns the leaf addr is mapped to, or NoLeaf.
func (m *PositionMap) Get(addr int64) (int64, error) {
	if err := m.check(addr); err != nil {
		return 0, err
	}
	if m.ct {
		return m.ctGet(addr), nil
	}
	return m.leaves[addr], nil
}

// Set pins addr to leaf.
func (m *PositionMap) Set(addr, leaf int64) error {
	if err := m.check(addr); err != nil {
		return err
	}
	if leaf != NoLeaf && (leaf < 0 || leaf >= m.nLeaf) {
		return fmt.Errorf("posmap: leaf %d out of range [0,%d)", leaf, m.nLeaf)
	}
	if m.ct {
		m.ctSet(addr, leaf)
		return nil
	}
	m.leaves[addr] = leaf
	return nil
}

// Clear unmaps every address.
func (m *PositionMap) Clear() {
	for i := range m.leaves {
		m.leaves[i] = NoLeaf
	}
}

// Export returns a copy of the full leaf assignment, indexed by
// address — the snapshot subsystem's view of the map.
func (m *PositionMap) Export() []int64 {
	out := make([]int64, len(m.leaves))
	copy(out, m.leaves)
	return out
}

// Import replaces the leaf assignment with a previously Exported one.
func (m *PositionMap) Import(leaves []int64) error {
	if len(leaves) != len(m.leaves) {
		return fmt.Errorf("posmap: import of %d leaves into a map of %d addresses", len(leaves), len(m.leaves))
	}
	for addr, leaf := range leaves {
		if leaf != NoLeaf && (leaf < 0 || leaf >= m.nLeaf) {
			return fmt.Errorf("posmap: import: address %d leaf %d out of range [0,%d)", addr, leaf, m.nLeaf)
		}
	}
	copy(m.leaves, leaves)
	return nil
}

// Tier says which physical layer currently holds a block.
type Tier uint8

// Tiers of the H-ORAM hierarchy.
const (
	TierStorage Tier = iota // flat storage layer, addressed by slot
	TierMemory              // in-memory Path ORAM tree (or its stash)
	TierPool                // in-flight shuffle's trusted pool, addressed by index
)

// String names the tier for reports.
func (t Tier) String() string {
	switch t {
	case TierStorage:
		return "storage"
	case TierPool:
		return "pool"
	}
	return "memory"
}

// Entry is one permutation-list record: where a logical block lives
// now and whether its storage slot was already read this period.
type Entry struct {
	Tier Tier
	// Slot is the block's storage slot (TierStorage), its memory-tree
	// leaf (TierMemory) or its pool index (TierPool).
	Slot    int64
	Touched bool // storage slot consumed this access period
}

// PermutationList is H-ORAM's control structure for the storage layer.
// It records, per logical address, a boolean "is the block already in
// memory" and its storage slot otherwise — exactly the two fields the
// paper's §4.1.1 prescribes — plus the per-period touched bit. A
// memory-tier entry's Slot holds the block's leaf in the memory tree,
// so the tree needs no position map.
type PermutationList struct {
	// Which entry an address selects, and a memory-tier entry's leaf,
	// are secret: Leaf and SetMemory touch them with masked full-length
	// passes under SetConstantTime.
	//
	//horam:secret
	entries []Entry
	ct      bool
}

// NewPermutationList creates a list for `blocks` addresses, all
// initially in storage with slot equal to their address (callers
// install a real permutation with SetStorage or InitRandom).
func NewPermutationList(blocks int64) (*PermutationList, error) {
	if blocks <= 0 {
		return nil, fmt.Errorf("posmap: block count must be positive, got %d", blocks)
	}
	entries := make([]Entry, blocks)
	for i := range entries {
		entries[i] = Entry{Tier: TierStorage, Slot: int64(i)}
	}
	return &PermutationList{entries: entries}, nil
}

// InitRandom installs a fresh uniformly random address→slot permutation
// over [0, Size()) and clears all touched bits and memory residency.
// It returns the permutation used, indexed by address.
func (l *PermutationList) InitRandom(rng *blockcipher.RNG) []int64 {
	n := len(l.entries)
	perm := rng.Perm(n)
	out := make([]int64, n)
	for addr := range l.entries {
		l.entries[addr] = Entry{Tier: TierStorage, Slot: int64(perm[addr])}
		out[addr] = int64(perm[addr])
	}
	return out
}

// Size returns the number of addresses.
func (l *PermutationList) Size() int64 { return int64(len(l.entries)) }

// Export returns a copy of every entry, indexed by address — the
// snapshot subsystem's view of the list.
func (l *PermutationList) Export() []Entry {
	out := make([]Entry, len(l.entries))
	copy(out, l.entries)
	return out
}

// Import replaces the list with a previously Exported one and
// re-validates the storage-slot injection, so a corrupted snapshot
// cannot install two blocks in one slot.
func (l *PermutationList) Import(entries []Entry) error {
	if len(entries) != len(l.entries) {
		return fmt.Errorf("posmap: import of %d entries into a list of %d addresses", len(entries), len(l.entries))
	}
	prev := l.entries
	l.entries = make([]Entry, len(entries))
	copy(l.entries, entries)
	if err := l.ValidateStoragePermutation(); err != nil {
		l.entries = prev
		return err
	}
	return nil
}

func (l *PermutationList) check(addr int64) error {
	if addr < 0 || addr >= int64(len(l.entries)) {
		return fmt.Errorf("posmap: address %d out of range [0,%d)", addr, len(l.entries))
	}
	return nil
}

// Lookup returns the entry for addr.
func (l *PermutationList) Lookup(addr int64) (Entry, error) {
	if err := l.check(addr); err != nil {
		return Entry{}, err
	}
	return l.entries[addr], nil
}

// SetConstantTime switches the discipline of the list's leaf reads and
// writes (Leaf, SetMemory). When on, they stop indexing the entries by
// address and instead run one full-length fixed-order masked pass per
// call, so the touch sequence depends only on the list's public size,
// as a constant-time position map's does. Results are identical in
// both modes. The list's other methods still index by address.
func (l *PermutationList) SetConstantTime(on bool) { l.ct = on }

// Leaf returns the memory-tree leaf of addr's block, or NoLeaf when the
// block is not in the memory tier.
func (l *PermutationList) Leaf(addr int64) (int64, error) {
	if err := l.check(addr); err != nil {
		return 0, err
	}
	if l.ct {
		return l.ctLeaf(addr), nil
	}
	if e := l.entries[addr]; e.Tier == TierMemory {
		return e.Slot, nil
	}
	return NoLeaf, nil
}

// ctLeaf scans every entry for addr's memory-tier leaf.
//
//horam:constant-time
//horam:secret addr
func (l *PermutationList) ctLeaf(addr int64) int64 {
	leaf := NoLeaf
	for j := range l.entries {
		m := ctops.Eq64(int64(j), addr) & ctops.EqInt(int(l.entries[j].Tier), int(TierMemory))
		leaf = ctops.Select64(m, l.entries[j].Slot, leaf)
	}
	return leaf
}

// SetMemory records that addr now lives in the memory tier, mapped to
// the tree's leaf. The touched bit is kept.
func (l *PermutationList) SetMemory(addr, leaf int64) error {
	if err := l.check(addr); err != nil {
		return err
	}
	if leaf < 0 {
		return fmt.Errorf("posmap: SetMemory(%d): leaf %d is not a tree leaf", addr, leaf)
	}
	if l.ct {
		l.ctSetMemory(addr, leaf)
		return nil
	}
	l.entries[addr].Tier = TierMemory
	l.entries[addr].Slot = leaf
	return nil
}

// ctSetMemory writes addr's memory tier and leaf via a masked
// full-length pass.
//
//horam:constant-time
//horam:secret addr leaf
func (l *PermutationList) ctSetMemory(addr, leaf int64) {
	for j := range l.entries {
		m := ctops.Eq64(int64(j), addr)
		l.entries[j].Tier = Tier(ctops.SelectInt(m, int(TierMemory), int(l.entries[j].Tier)))
		l.entries[j].Slot = ctops.Select64(m, leaf, l.entries[j].Slot)
	}
}

// SetPool records that addr now waits at index i of the in-flight
// shuffle's trusted pool.
func (l *PermutationList) SetPool(addr int64, i int) error {
	if err := l.check(addr); err != nil {
		return err
	}
	l.entries[addr] = Entry{Tier: TierPool, Slot: int64(i)}
	return nil
}

// SetStorage records that addr lives in storage at slot, with the
// touched bit cleared.
func (l *PermutationList) SetStorage(addr, slot int64) error {
	if err := l.check(addr); err != nil {
		return err
	}
	l.entries[addr] = Entry{Tier: TierStorage, Slot: slot}
	return nil
}

// MarkTouched sets the touched bit of addr. It fails if the block is
// not in storage or the bit is already set — a violated square-root
// invariant is a bug in the caller, not a recoverable condition, but
// we surface it as an error so tests can assert on it.
func (l *PermutationList) MarkTouched(addr int64) error {
	if err := l.check(addr); err != nil {
		return err
	}
	e := &l.entries[addr]
	if e.Tier != TierStorage {
		return fmt.Errorf("posmap: MarkTouched(%d): block is in %v", addr, e.Tier)
	}
	if e.Touched {
		return fmt.Errorf("posmap: MarkTouched(%d): slot %d already read this period (square-root invariant violated)", addr, e.Slot)
	}
	e.Touched = true
	return nil
}

// ResetPeriod clears every touched bit (the per-period state).
func (l *PermutationList) ResetPeriod() {
	for i := range l.entries {
		l.entries[i].Touched = false
	}
}

// InMemoryCount returns how many blocks are resident in memory.
func (l *PermutationList) InMemoryCount() int64 {
	var n int64
	for i := range l.entries {
		if l.entries[i].Tier == TierMemory {
			n++
		}
	}
	return n
}

// StorageAddrs returns all addresses currently in the storage tier, in
// ascending order.
func (l *PermutationList) StorageAddrs() []int64 {
	out := make([]int64, 0, len(l.entries))
	for a := range l.entries {
		if l.entries[a].Tier == TierStorage {
			out = append(out, int64(a))
		}
	}
	return out
}

// ValidateStoragePermutation checks that the storage slots of all
// storage-resident blocks are distinct — i.e. the list is a partial
// injection into storage. Used by property tests after shuffles.
func (l *PermutationList) ValidateStoragePermutation() error {
	seen := make(map[int64]int64)
	for a := range l.entries {
		e := l.entries[a]
		if e.Tier != TierStorage {
			continue
		}
		if prev, dup := seen[e.Slot]; dup {
			return fmt.Errorf("posmap: addresses %d and %d share storage slot %d", prev, a, e.Slot)
		}
		seen[e.Slot] = int64(a)
	}
	return nil
}
