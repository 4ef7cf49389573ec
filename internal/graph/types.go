// Package graph implements the typed object graph substrate of the paper
// (Sect. II-A): an undirected heterogeneous graph G = (V, E) whose nodes
// carry both an intrinsic value (a name such as "Alice" or "Company X") and
// an object type drawn from a small type set T (user, school, hobby, ...).
//
// The representation is a compressed sparse row (CSR) adjacency in which each
// node's neighbor list is sorted by (type, id). This layout serves the two
// access patterns that dominate metagraph matching: enumerating the neighbors
// of a node that have a given type, and testing edge existence.
package graph

import (
	"fmt"
	"sort"
)

// TypeID identifies an object type within a Graph's type registry. The zero
// value is the first registered type; InvalidType marks "no such type".
type TypeID int32

// InvalidType is returned by lookups for unregistered type names.
const InvalidType TypeID = -1

// MaxTypes bounds the types a graph registers. Every node keeps one typed
// sub-range offset per type, so the bound keeps a graph's memory linear in
// its nodes — also for a snapshot whose registry a corrupt stream inflates.
// The paper's datasets have a handful of types.
const MaxTypes = 256

// TypeRegistry maps between human-readable type names ("user", "school") and
// dense TypeIDs. It implements the type mapping function τ of the paper at
// the vocabulary level; the per-node mapping lives in Graph.
type TypeRegistry struct {
	names []string
	ids   map[string]TypeID
}

// NewTypeRegistry returns an empty registry.
func NewTypeRegistry() *TypeRegistry {
	return &TypeRegistry{ids: make(map[string]TypeID)}
}

// Register returns the TypeID for name, creating it if necessary.
func (r *TypeRegistry) Register(name string) TypeID {
	if id, ok := r.ids[name]; ok {
		return id
	}
	id := TypeID(len(r.names))
	r.names = append(r.names, name)
	r.ids[name] = id
	return id
}

// ID returns the TypeID for name, or InvalidType if name was never
// registered.
func (r *TypeRegistry) ID(name string) TypeID {
	if id, ok := r.ids[name]; ok {
		return id
	}
	return InvalidType
}

// Name returns the name of id. It panics if id is out of range, which
// indicates a programming error rather than bad input.
func (r *TypeRegistry) Name(id TypeID) string {
	return r.names[id]
}

// Len returns the number of registered types.
func (r *TypeRegistry) Len() int { return len(r.names) }

// Names returns the registered type names in TypeID order. The slice is a
// copy and may be retained by the caller.
func (r *TypeRegistry) Names() []string {
	out := make([]string, len(r.names))
	copy(out, r.names)
	return out
}

// SortedNames returns the registered names in lexicographic order,
// independent of registration order. Useful for stable reports.
func (r *TypeRegistry) SortedNames() []string {
	out := r.Names()
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the registry.
func (r *TypeRegistry) Clone() *TypeRegistry {
	c := NewTypeRegistry()
	for _, n := range r.names {
		c.Register(n)
	}
	return c
}

func (r *TypeRegistry) String() string {
	return fmt.Sprintf("TypeRegistry(%d types: %v)", len(r.names), r.names)
}
