package relation

import (
	"fmt"
	"strings"
)

// Schema is an ordered list of named attributes. It is immutable after
// construction; all packages share *Schema pointers.
type Schema struct {
	names []string
	index map[string]int
}

// NewSchema builds a schema from attribute names. Names must be non-empty
// and unique (case-sensitive), and there can be at most MaxAttrs of them.
func NewSchema(names ...string) (*Schema, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("relation: schema needs at least one attribute")
	}
	if len(names) > MaxAttrs {
		return nil, fmt.Errorf("relation: schema has %d attributes, max is %d", len(names), MaxAttrs)
	}
	s := &Schema{
		names: make([]string, len(names)),
		index: make(map[string]int, len(names)),
	}
	for i, n := range names {
		n = strings.TrimSpace(n)
		if n == "" {
			return nil, fmt.Errorf("relation: attribute %d has an empty name", i)
		}
		if _, dup := s.index[n]; dup {
			return nil, fmt.Errorf("relation: duplicate attribute name %q", n)
		}
		s.names[i] = n
		s.index[n] = i
	}
	return s, nil
}

// MustSchema is NewSchema but panics on error; for tests and literals.
func MustSchema(names ...string) *Schema {
	s, err := NewSchema(names...)
	if err != nil {
		panic(err)
	}
	return s
}

// Width returns |R|, the number of attributes.
func (s *Schema) Width() int { return len(s.names) }

// Name returns the name of attribute a.
func (s *Schema) Name(a int) string { return s.names[a] }

// Names returns a copy of all attribute names in schema order.
func (s *Schema) Names() []string { return append([]string(nil), s.names...) }

// Index returns the position of the named attribute, or -1 if absent.
func (s *Schema) Index(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// String renders the schema as "R(A, B, C)".
func (s *Schema) String() string {
	return "R(" + strings.Join(s.names, ", ") + ")"
}

// ParseAttrs resolves a comma-separated list of attribute names to a set.
func (s *Schema) ParseAttrs(list string) (AttrSet, error) {
	var set AttrSet
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		i := s.Index(part)
		if i < 0 {
			return 0, fmt.Errorf("relation: unknown attribute %q in %q", part, list)
		}
		set = set.Add(i)
	}
	return set, nil
}
