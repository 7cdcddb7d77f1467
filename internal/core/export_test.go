package core

// WorkerIndex exposes the key → worker mapping to the routing golden table.
func WorkerIndex(key string, n int) int { return workerIndex(key, n) }
