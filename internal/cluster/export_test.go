package cluster

import "sort"

// DocRoots lists the document roots the shards' primaries hold, ascending:
// the population the scope and differential tests sample documents from.
func (c *Cluster) DocRoots() []int {
	var roots []int
	seen := map[int]bool{}
	for _, sh := range c.shards {
		db := sh.primary.View().DB
		db.EachNode(func(id int) {
			if db.Parent(id) == 0 && !seen[id] {
				seen[id] = true
				roots = append(roots, id)
			}
		})
	}
	sort.Ints(roots)
	return roots
}
