package core

// WorkerIndex exposes the key → worker mapping to the routing golden table:
// the key's group, owned by worker group % n.
func WorkerIndex(key string, n int) int { return groupOf(key) % n }
