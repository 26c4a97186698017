// Package enum backs the solver's small integer enums with one name table
// each: the table is the single source of a value's spelling in flags, JSON
// and printed reports.
package enum

import (
	"fmt"
	"strings"
)

// Name returns names[v], or "typ(v)" for a value without a name.
func Name[T ~int](names []string, typ string, v T) string {
	if v >= 0 && int(v) < len(names) {
		return names[v]
	}
	return fmt.Sprintf("%s(%d)", typ, int(v))
}

// Marshal spells v for MarshalText; a value without a name is an error.
func Marshal[T ~int](names []string, what string, v T) ([]byte, error) {
	if v < 0 || int(v) >= len(names) {
		return nil, fmt.Errorf("unknown %s %d", what, int(v))
	}
	return []byte(names[v]), nil
}

// Unmarshal parses a spelling for UnmarshalText, rejecting unknown names.
func Unmarshal[T ~int](names []string, what string, text []byte, v *T) error {
	for i, n := range names {
		if n == string(text) {
			*v = T(i)
			return nil
		}
	}
	return fmt.Errorf("unknown %s %q (want %s)", what, text, strings.Join(names, ", "))
}
