package pool

import (
	"pooldcs/internal/event"
	"pooldcs/internal/holding"
)

// Store is what a deployment's Pool cells hold: the holding layer, each Key
// a unit at its directory slot and each cell's mirror the node the
// Directory places. The synchronous System and the node actor engine each
// embed one beside their Directory and carry its moves out their own way:
// in zero time, or hop by hop over virtual time. Slots run in (dimension,
// column, row) order, and so do the layer's walks.
type Store struct {
	dir *Directory
	*holding.Store[Key]
}

// NewStore returns an empty store over dir's deployment.
func NewStore(dir *Directory) *Store {
	return &Store{dir: dir, Store: holding.New(dir.numSlots(), len(dir.dead), holding.Scheme[Key]{
		Slot: dir.slot, Unit: dir.keyAt, Failed: dir.Failed, MirrorAt: dir.mirrorAt})}
}

// Restore lands a restore chunk on node's segment of the cell by the
// layer's rule, keeping the events that suit the deployment.
func (st *Store) Restore(key Key, node int, chunk []event.Event) {
	st.Store.Restore(key, node, chunk, func(e event.Event) bool { return st.dir.checkEvent(e) == nil })
}
