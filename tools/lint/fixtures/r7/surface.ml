let used x = x + 1
let unused x = x - 1
let via_alias x = x * 2
