package cluster

import "sort"

// DocRoots lists the document roots the in-process shards hold, ascending: the
// population the scope and differential tests sample documents from.
func (c *Cluster) DocRoots() []int {
	var roots []int
	seen := map[int]bool{}
	for i := range c.shards {
		db := c.Shard(i).st.View().DB
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

// ConnectOwned is Connect over shards whose node IDs interleave, as
// SplitCollection leaves them: the directory is seeded from its owner map
// instead of from one base a shard.
func ConnectOwned(cfg Config, urls []string, owner map[int]int) (*Cluster, error) {
	return connect(cfg, urls, buildDirectory(owner))
}
