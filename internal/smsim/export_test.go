package smsim

// ReferenceRunBlocks exposes the reference model to the external tests
// that run the kernel catalog through it (kernels imports smsim).
var ReferenceRunBlocks = referenceRunBlocks
