let helper x = x
