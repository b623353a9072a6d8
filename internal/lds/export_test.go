package lds

// TxAllocated reports whether l has built its Tx-mode arrays.
func TxAllocated(l *LDS) bool { return l.tags != nil }
