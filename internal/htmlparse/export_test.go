package htmlparse

// Hooks for the external tests in package htmlparse_test, which walk
// corpora this package cannot import.

// NodeClass returns n's element class bits.
func NodeClass(n *Node) uint8 { return n.class }

// CloneClass returns the class bits of the adoption agency's clone of n.
func CloneClass(n *Node) uint8 {
	var tb treeBuilder
	return tb.cloneNode(n).class
}

// NameClass returns the class bits an HTML element named name must carry:
// one bit for each name set that holds name, read from the sets
// themselves, not from elementClasses.
func NameClass(name string) uint8 {
	var c uint8
	for bit, set := range map[uint8]map[string]bool{
		classSpecial:        specialElements,
		classScopeStop:      defaultScopeStop,
		classListItemScope:  listItemScopeExtra,
		classButtonScope:    buttonScopeExtra,
		classTableScopeStop: tableScopeStop,
		classImpliedEnd:     impliedEndTags,
	} {
		if set[name] {
			c |= bit
		}
	}
	return c
}
